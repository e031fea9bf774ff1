"""Environment views that only the tests need."""

from rwre_lab.environments import Box, Environment, constant_law, sample_environment


def mean_environment(law, region: Box) -> Environment:
    """Deterministic environment whose every site equals the marginal means."""
    means = law.marginal_means()
    return sample_environment(constant_law(law.dimension, means, min(law.kappa, means.min())),
                              0, region)


def omega(env: Environment, site):
    """The probability vector at one site."""
    return env.omega_many(site)[0]
