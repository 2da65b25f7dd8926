"""``DelayModel.sample_block`` is draw-for-draw the scalar ``sample`` sequence.

Every network delay of a run is read from a block the run context refills
``_DELAY_BLOCK`` samples at a time, so the virtual timeline is the scalar
one only if a block of *n* equals *n* consecutive ``sample`` calls on an
identically seeded generator — across refills, and whatever the block
sizes.  A replayed run script draws its delays with ``sample_array``, held
to the same sequence.  Compared as ``float.hex`` so a last-bit difference
fails.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.federation.answers import _DELAY_BLOCK
from repro.network.delays import (
    DelayModel,
    FixedDelay,
    GammaDelay,
    NetworkSetting,
    NoDelay,
    ScaledDelay,
)

SEED = 20

#: Block sizes whose running total straddles several ``_DELAY_BLOCK``
#: boundaries, including blocks of one and blocks larger than a refill.
SIZES = (1, _DELAY_BLOCK - 1, 2, _DELAY_BLOCK, 3, _DELAY_BLOCK + 7, 1, 300)


class UniformDelay(DelayModel):
    """A model that only defines ``sample``: the base-class ``sample_block``."""

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.random()) / 1000.0


MODELS = {
    "none": NoDelay(),
    "fixed": FixedDelay(0.00125),
    "gamma1": NetworkSetting.gamma1().delay,
    "gamma3": GammaDelay(alpha=3.0, beta_ms=1.5),
    "scaled-gamma": ScaledDelay(GammaDelay(alpha=3.0, beta_ms=1.0), 2.5),
    "base-class": UniformDelay(),
    "scaled-base-class": ScaledDelay(UniformDelay(), 0.3),
}


def hexes(values) -> list[str]:
    return [float(value).hex() for value in values]


@pytest.mark.parametrize("model", MODELS.values(), ids=MODELS.keys())
def test_blocks_replay_the_scalar_sequence(model):
    scalar_rng = np.random.default_rng(SEED)
    scalar = [model.sample(scalar_rng) for __ in range(sum(SIZES))]
    block_rng = np.random.default_rng(SEED)
    blocks = [value for size in SIZES for value in model.sample_block(block_rng, size)]
    assert hexes(blocks) == hexes(scalar)
    assert all(type(value) is float for value in blocks)  # clocks stay float
    array_rng = np.random.default_rng(SEED)
    arrays = [model.sample_array(array_rng, size) for size in SIZES]
    assert all(array.dtype == np.float64 for array in arrays)
    assert hexes(np.concatenate(arrays)) == hexes(scalar)
    # The generators end in the same state: the next draw agrees too.
    assert model.sample(block_rng) == model.sample(scalar_rng) == model.sample(array_rng)


@pytest.mark.parametrize("n", (1, 3, 511, 512, 513, 2752))
@pytest.mark.parametrize("model", MODELS.values(), ids=MODELS.keys())
def test_one_block_is_the_prefix_of_refills(model, n):
    # A replayed run script's delays end in a short block (n of them); the
    # live run it stands for drew them ``_DELAY_BLOCK`` at a time.
    refill_rng = np.random.default_rng(SEED)
    refills = []
    while len(refills) < n:
        refills.extend(model.sample_block(refill_rng, _DELAY_BLOCK))
    block = model.sample_block(np.random.default_rng(SEED), n)
    assert hexes(block) == hexes(refills[:n])
    array = model.sample_array(np.random.default_rng(SEED), n)
    assert hexes(array) == hexes(refills[:n])
