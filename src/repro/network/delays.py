"""Network delay models — the paper's four simulated network settings.

The paper delays the retrieval of each answer from a source by a sample of
``numpy.random.gamma(alpha, beta)`` milliseconds:

* **No Delay** — perfect network.
* **Gamma 1** — fast: Γ(α=1, β=0.3), mean 0.3 ms per message.
* **Gamma 2** — medium: Γ(α=3, β=1), mean 3 ms per message.
* **Gamma 3** — slow: Γ(α=3, β=1.5), mean 4.5 ms per message.

Heuristic 2 depends on a notion of "the network speed is low"; a
:class:`NetworkSetting` therefore classifies itself via its mean latency
against a configurable threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Mean per-message latency (seconds) at which a network counts as slow.
DEFAULT_SLOW_THRESHOLD = 0.002


class DelayModel:
    """Per-message delay distribution; samples are in seconds."""

    def sample(self, rng: np.random.Generator) -> float:
        raise NotImplementedError

    def sample_array(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """*n* consecutive samples as a float64 array, bit-identical to *n*
        ``sample`` calls.

        A replayed run script fills its delay slots from this; subclasses
        with a vectorizable distribution override it, and the equivalence
        to the scalar sequence is pinned by
        ``tests/network/test_delay_blocks.py``.
        """
        return np.array([self.sample(rng) for __ in range(n)], dtype=np.float64)

    def sample_block(self, rng: np.random.Generator, n: int) -> list[float]:
        """``sample_array`` as Python floats: every run context buffers its
        delays through this."""
        return self.sample_array(rng, n).tolist()

    @property
    def mean_latency(self) -> float:
        """Expected delay per message in seconds."""
        raise NotImplementedError


@dataclass(frozen=True)
class NoDelay(DelayModel):
    """The perfect network."""

    def sample(self, rng: np.random.Generator) -> float:
        return 0.0

    def sample_array(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.zeros(n)

    @property
    def mean_latency(self) -> float:
        return 0.0

    def __str__(self) -> str:
        return "NoDelay"


@dataclass(frozen=True)
class FixedDelay(DelayModel):
    """A constant per-message delay (useful in tests)."""

    seconds: float

    def sample(self, rng: np.random.Generator) -> float:
        return self.seconds

    def sample_array(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.full(n, self.seconds)

    @property
    def mean_latency(self) -> float:
        return self.seconds

    def __str__(self) -> str:
        return f"Fixed({self.seconds * 1000:.3f}ms)"


@dataclass(frozen=True)
class GammaDelay(DelayModel):
    """Gamma-distributed delay; *beta_ms* is the scale in milliseconds.

    Matches the paper's use of ``numpy.random.gamma(alpha, beta)`` with the
    result interpreted as milliseconds.
    """

    alpha: float
    beta_ms: float

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.gamma(self.alpha, self.beta_ms)) / 1000.0

    def sample_array(self, rng: np.random.Generator, n: int) -> np.ndarray:
        # Generator.gamma(size=n) advances the bit stream exactly like n
        # scalar draws, and the elementwise /1000.0 is the same IEEE op as
        # the scalar division — so this is draw-for-draw bit-identical.
        return rng.gamma(self.alpha, self.beta_ms, size=n) / 1000.0

    @property
    def mean_latency(self) -> float:
        return self.alpha * self.beta_ms / 1000.0

    def __str__(self) -> str:
        return f"Gamma(alpha={self.alpha}, beta={self.beta_ms}ms)"


@dataclass(frozen=True)
class ScaledDelay(DelayModel):
    """An inner delay model with every sample multiplied by a factor.

    The doctor's regression-injection harness: scaling consumes exactly
    the same RNG draws as the inner model (one per message), so a scaled
    run is the same schedule with proportionally slower transfers — the
    controlled "network got slower" counterfactual.
    """

    inner: DelayModel
    factor: float

    def sample(self, rng: np.random.Generator) -> float:
        return self.inner.sample(rng) * self.factor

    def sample_array(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.inner.sample_array(rng, n) * self.factor

    @property
    def mean_latency(self) -> float:
        return self.inner.mean_latency * self.factor

    def __str__(self) -> str:
        return f"Scaled({self.inner} x{self.factor})"


@dataclass(frozen=True)
class NetworkSetting:
    """A named network condition of the experiment grid."""

    name: str
    delay: DelayModel
    slow_threshold: float = DEFAULT_SLOW_THRESHOLD

    @property
    def is_slow(self) -> bool:
        """Whether Heuristic 2 should treat this network as slow."""
        return self.delay.mean_latency >= self.slow_threshold

    @property
    def mean_latency(self) -> float:
        return self.delay.mean_latency

    def __str__(self) -> str:
        return self.name

    # -- the paper's four settings -------------------------------------------

    @classmethod
    def no_delay(cls) -> "NetworkSetting":
        """Perfect network with no or negligible latency."""
        return cls("No Delay", NoDelay())

    @classmethod
    def gamma1(cls) -> "NetworkSetting":
        """Fast network: Γ(1, 0.3), average latency 0.3 ms."""
        return cls("Gamma 1", GammaDelay(alpha=1.0, beta_ms=0.3))

    @classmethod
    def gamma2(cls) -> "NetworkSetting":
        """Medium fast network: Γ(3, 1), average latency 3 ms."""
        return cls("Gamma 2", GammaDelay(alpha=3.0, beta_ms=1.0))

    @classmethod
    def gamma3(cls) -> "NetworkSetting":
        """Slow network: Γ(3, 1.5), average latency 4.5 ms."""
        return cls("Gamma 3", GammaDelay(alpha=3.0, beta_ms=1.5))

    @classmethod
    def all_settings(cls) -> list["NetworkSetting"]:
        """The experiment grid's four network conditions, fast to slow."""
        return [cls.no_delay(), cls.gamma1(), cls.gamma2(), cls.gamma3()]

    def scaled(self, factor: float) -> "NetworkSetting":
        """This setting with all delay samples multiplied by *factor*."""
        return NetworkSetting(
            name=f"{self.name} x{factor}",
            delay=ScaledDelay(self.delay, factor),
            slow_threshold=self.slow_threshold,
        )

    @classmethod
    def by_name(cls, name: str) -> "NetworkSetting":
        for setting in cls.all_settings():
            if setting.name.lower().replace(" ", "") == name.lower().replace(" ", ""):
                return setting
        raise KeyError(f"unknown network setting {name!r}")
