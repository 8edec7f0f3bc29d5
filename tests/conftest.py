import numpy as np
import pytest

from skorochaos import Grid, sample_paths


@pytest.fixture(scope="session")
def grid8():
    return Grid(8)


@pytest.fixture(scope="session")
def grid16():
    return Grid(16)


@pytest.fixture(scope="session")
def batch8(grid8):
    return sample_paths(grid8, 300, seed=101)


@pytest.fixture(scope="session")
def batch16(grid16):
    return sample_paths(grid16, 300, seed=202)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


# Moment oracles read off the isometry: E[F G] = mean(F) mean(G) + Cov(F, G).
def product_expectation(F, G):
    return F.mean * G.mean + F.covariance(G)


def second_moment(F):
    return F.mean**2 + F.variance()
