"""Environment views and references that only the tests need."""

import numpy as np

from rwre_lab.environments import Box, Environment, IIDProductLaw, sample_environment
from rwre_lab.numutil import site_uniforms, site_words

from oracles import all_sites


def constant_law(dimension: int, prob, kappa: float) -> IIDProductLaw:
    """Single-atom law: the deterministic environment equal to ``prob`` everywhere."""
    return IIDProductLaw(dimension, [prob], [1.0], kappa)


def mean_environment(law, region: Box) -> Environment:
    """Deterministic environment whose every site equals the marginal means."""
    means = law.means
    return sample_environment(constant_law(law.dimension, means, min(law.kappa, means.min())),
                              0, region)


def omega(env: Environment, site):
    """The probability vector at one site."""
    return env.omega_many(site)[0]


def reference_states(law, seed, box):
    """The atom of every site of ``box``, each site (y, x) built on its own.

    Its byte is byte x mod 8, little-endian, of the word of (y, x div 8); a
    byte whose range [b/256, (b+1)/256) holds a cut stands for the draw
    (b + u') / 256 with u' the stream-1 uniform of (y, x), any other for b / 256.
    """
    sites = all_sites(box)
    x = sites[:, -1]
    words = site_words(seed, np.column_stack([sites[:, :-1], x // 8]))
    drawn = ((words >> (8 * (x % 8)).astype(np.uint64)) & np.uint64(255)).astype(np.float64)
    cuts = np.cumsum(law.weights)[:-1]
    straddles = (np.searchsorted(cuts, drawn / 256, side="right")
                 != np.searchsorted(cuts, (drawn + 1) / 256, side="left"))
    draw = drawn / 256
    draw[straddles] = (drawn[straddles] + site_uniforms(seed, sites[straddles], stream=1)) / 256
    return np.searchsorted(cuts, draw, side="right").reshape(box.shape)
