"""Controlled estimation-error injection (paper Section 6.6).

The paper measures how online performance degrades as sampling estimates
get worse: starting from an "ideal" (100 %) sample, every window's
estimated objective value ``v`` is perturbed to ``v * (1 ± n/100)`` where
``n`` is Gaussian with mean = the configured noise percentage and a fixed
standard deviation of 5.0.

:class:`NoiseModel` reproduces this.  Perturbations are *deterministic per
window* (keyed by the window's bounds), so repeatedly estimating the same
window during the search yields the same noisy value — as it would with a
fixed bad sample — and experiments stay reproducible.
"""

from __future__ import annotations

import numpy as np

__all__ = ["NoiseModel"]


class NoiseModel:
    """Multiplicative Gaussian noise on window-level objective estimates."""

    def __init__(self, noise_pct: float, std_pct: float = 5.0, seed: int = 23) -> None:
        if noise_pct < 0:
            raise ValueError(f"noise percentage must be non-negative, got {noise_pct}")
        if std_pct < 0:
            raise ValueError(f"noise std must be non-negative, got {std_pct}")
        self.noise_pct = noise_pct
        self.std_pct = std_pct
        self.seed = seed

    def perturb(self, lo: tuple[int, ...], hi: tuple[int, ...], value: float) -> float:
        """The noisy estimate ``v * (1 ± n/100)`` for the window ``[lo, hi)``.

        Clamped at zero: count-like objectives cannot go negative, and a
        noise draw above 100 % must degrade the estimate to "nothing
        here", not flip its sign (``v * (1 - n/100)`` with ``n > 100``
        would otherwise invert the value and, with it, the comparison
        against the condition threshold).
        """
        if self.noise_pct == 0 and self.std_pct == 0:
            return value
        key = hash((self.seed, lo, hi)) & 0x7FFFFFFF
        rng = np.random.default_rng(key)
        n = rng.normal(self.noise_pct, self.std_pct)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        factor = max(0.0, 1.0 + sign * n / 100.0)
        return value * factor

    def perturb_many(
        self, lows: np.ndarray, his: np.ndarray, values: np.ndarray, unread: np.ndarray
    ) -> np.ndarray:
        """Perturb the ``unread`` rows of a batch of ``(P, d)`` window bounds.

        Each draw is seeded by its row's bounds, so this is a per-row loop
        through :meth:`perturb`, bitwise identical to the scalar path;
        fully read windows keep their exact value.
        """
        out = np.array(values, dtype=np.float64, copy=True)
        lo_rows = lows.tolist()
        hi_rows = his.tolist()
        for i in np.flatnonzero(unread).tolist():
            out[i] = self.perturb(tuple(lo_rows[i]), tuple(hi_rows[i]), float(out[i]))
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"NoiseModel({self.noise_pct}% ± {self.std_pct})"
