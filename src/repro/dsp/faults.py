"""Stochastic timing-fault decision model for DSP slices under droop.

Real multiplier critical paths are *data dependent*: an operation only
misses timing when its operands excite a long-enough carry/propagate
chain.  We model each op's effective path as::

    delay_op(v) = critical_path_nominal * factor(v) * (base + span * x)

with per-op excitation ``x ~ Beta(1, shape)`` (density ``shape *
(1-x)**(shape-1)``, so full-length excitations are rare).  The op faults
when ``delay_op(v)`` exceeds the DDR period; the violation depth ``d``
then decides the class: shallow misses deliver the previous product one
edge late (**duplication**), deep misses capture mid-transition garbage
(**random**), split as ``p_dup|fault = exp(-d / duplication_decay)``.

This produces the paper's Fig 6(b) phenomenology: a gradual, *controllable*
dose-response (duplication faults appear first, random faults take over,
total approaches 100% at 24,000 striker cells) instead of a knife-edge.

The same model runs scalar (inside :class:`~repro.dsp.DSP48Slice`) and
vectorized (the per-cycle probabilities of :meth:`fault_probabilities`
that the accuracy sweep's injection draws against), so both simulation
levels share one physics.
"""

from __future__ import annotations

import enum
from functools import lru_cache
from typing import Tuple, Union

import numpy as np

from ..config import DSPConfig
from ..sensors.delay import GateDelayModel
from .timing import DSPTiming

__all__ = ["FaultType", "TimingFaultModel"]


@lru_cache(maxsize=8)
def _hermegauss(nodes: int) -> Tuple[np.ndarray, np.ndarray]:
    """Cached Gauss-Hermite(e) nodes: the eigen-solve behind them costs
    more than the quadrature itself on the hot path."""
    return np.polynomial.hermite_e.hermegauss(nodes)


@lru_cache(maxsize=8)
def _leggauss(nodes: int) -> Tuple[np.ndarray, np.ndarray]:
    """Cached Gauss-Legendre nodes (same rationale as _hermegauss)."""
    return np.polynomial.legendre.leggauss(nodes)


class FaultType(enum.IntEnum):
    """Outcome of one DSP operation's capture edge."""

    NONE = 0
    DUPLICATION = 1
    RANDOM = 2


class TimingFaultModel:
    """Voltage -> (fault?, class) decisions, scalar or vectorized."""

    def __init__(self, config: DSPConfig, delay_model: GateDelayModel,
                 rng: np.random.Generator) -> None:
        config.validate()
        self.config = config
        self.timing = DSPTiming(config, delay_model)
        self.rng = rng

    # -- analytic probabilities ------------------------------------------------

    def _excitation_threshold(self, voltage: Union[float, np.ndarray]) -> np.ndarray:
        """The excitation ``x`` above which an op faults at ``voltage``.

        Solving ``delay(v) * (base + span*x) = period`` for x; values
        above 1 mean no op can fault, below 0 mean every op faults.
        """
        cfg = self.config
        full_delay = np.asarray(self.timing.path_delay(voltage))
        u_needed = cfg.ddr_period / full_delay
        return (u_needed - cfg.excitation_base) / cfg.excitation_span

    def fault_probability(self, voltage: Union[float, np.ndarray]):
        """P(any fault) at ``voltage``: the Beta(1, shape) upper tail."""
        t = np.clip(self._excitation_threshold(voltage), 0.0, 1.0)
        out = (1.0 - t) ** self.config.excitation_shape
        return float(out) if np.isscalar(voltage) else out

    def duplication_fraction(self, voltage: Union[float, np.ndarray],
                             grid: int = 64):
        """P(duplication | fault) at ``voltage`` (numeric conditional mean
        of ``exp(-d/tau)`` over the faulted excitation tail)."""
        v = np.atleast_1d(np.asarray(voltage, dtype=np.float64))
        cfg = self.config
        full_delay = np.asarray(self.timing.path_delay(v))
        t = np.clip(self._excitation_threshold(v), 0.0, 1.0)
        out = np.zeros_like(t)
        shape = cfg.excitation_shape
        for k in range(v.shape[0]):
            if t[k] >= 1.0:
                out[k] = 1.0  # vacuous: no faults; define as 1 for continuity
                continue
            xs = np.linspace(t[k], 1.0, grid)
            weights = shape * (1.0 - xs) ** (shape - 1.0)
            d = full_delay[k] * (cfg.excitation_base + cfg.excitation_span * xs) \
                - cfg.ddr_period
            d = np.maximum(d, 0.0)
            vals = np.exp(-d / cfg.duplication_decay)
            total = np.trapezoid(weights, xs)
            out[k] = np.trapezoid(weights * vals, xs) / max(total, 1e-12)
        return float(out[0]) if np.isscalar(voltage) else out

    def class_probabilities(self, voltage: float) -> Tuple[float, float, float]:
        """``(p_none, p_duplication, p_random)`` at ``voltage``."""
        p_fault = self.fault_probability(voltage)
        p_dup = p_fault * self.duplication_fraction(voltage)
        return (1.0 - p_fault, p_dup, p_fault - p_dup)

    def fault_probabilities(self, voltages: np.ndarray,
                            noise_sigma: float = 0.0,
                            noise_nodes: int = 24,
                            tail_nodes: int = 24
                            ) -> Tuple[np.ndarray, np.ndarray]:
        """Noise-marginalized ``(P(fault), P(duplication | fault))``.

        Per entry of ``voltages``, the marginal outcome distribution of
        :meth:`decide_array` evaluated at ``v + eps`` with gaussian
        supply noise ``eps ~ N(0, noise_sigma)``: the noise is integrated
        out by Gauss-Hermite quadrature, and the duplication fraction of
        the faulted excitation tail by Gauss-Legendre.  This is the
        injection hot path's workhorse (see docs/performance.md): per-op
        decisions collapse to two uniform draws against these per-cycle
        probabilities, with no per-op path-delay evaluation at all.
        """
        cfg = self.config
        v = np.asarray(voltages, dtype=np.float64)
        uniq, inverse = np.unique(v, return_inverse=True)
        if noise_sigma > 0.0:
            eps, w_eps = _hermegauss(noise_nodes)
            w_eps = w_eps / w_eps.sum()
            ve = uniq[:, None] + noise_sigma * eps[None, :]
        else:
            ve = uniq[:, None]
            w_eps = np.ones(1)
        full_delay = np.asarray(self.timing.path_delay(ve))
        t = (cfg.ddr_period / full_delay - cfg.excitation_base) \
            / cfg.excitation_span
        q = np.clip(1.0 - t, 0.0, 1.0)
        fault = q ** cfg.excitation_shape  # P(fault | eps)
        # P(dup | fault, eps): average exp(-depth/tau) over the faulted
        # tail.  Inverse-CDF sampling of Beta(1, shape) gives
        # x = 1 - u**(1/shape); conditioned on a fault, u = q**shape * s
        # with s ~ U(0, 1), so x = 1 - q * s**(1/shape).
        s, w_s = _leggauss(tail_nodes)
        s = 0.5 * (s + 1.0)
        w_s = 0.5 * w_s
        x = 1.0 - q[..., None] * s ** (1.0 / cfg.excitation_shape)
        depth = full_delay[..., None] \
            * (cfg.excitation_base + cfg.excitation_span * x) - cfg.ddr_period
        dup = (np.exp(-np.maximum(depth, 0.0) / cfg.duplication_decay)
               * w_s).sum(axis=-1)
        p_fault = (fault * w_eps).sum(axis=-1)
        p_dup = (fault * dup * w_eps).sum(axis=-1) \
            / np.maximum(p_fault, 1e-300)
        return p_fault[inverse], p_dup[inverse]

    # -- sampling ----------------------------------------------------------

    def _violations(self, voltages: np.ndarray) -> np.ndarray:
        """Sample per-op violation depths (<= 0 means no fault)."""
        cfg = self.config
        v = np.asarray(voltages, dtype=np.float64)
        x = self.rng.beta(1.0, cfg.excitation_shape, size=v.shape)
        delay_op = np.asarray(self.timing.path_delay(v)) \
            * (cfg.excitation_base + cfg.excitation_span * x)
        return delay_op - cfg.ddr_period

    def decide(self, voltage: float) -> FaultType:
        """Sample one capture-edge outcome."""
        d = float(self._violations(np.asarray([voltage]))[0])
        if d <= 0.0:
            return FaultType.NONE
        if self.rng.random() < np.exp(-d / self.config.duplication_decay):
            return FaultType.DUPLICATION
        return FaultType.RANDOM

    def decide_array(self, voltages: np.ndarray) -> np.ndarray:
        """Vectorized sampling: one :class:`FaultType` value per entry."""
        v = np.asarray(voltages, dtype=np.float64)
        d = self._violations(v)
        faulted = d > 0.0
        p_dup = np.exp(-np.maximum(d, 0.0) / self.config.duplication_decay)
        dup = faulted & (self.rng.random(v.shape) < p_dup)
        out = np.zeros(v.shape, dtype=np.int8)
        out[faulted] = FaultType.RANDOM
        out[dup] = FaultType.DUPLICATION
        return out

    # -- diagnostics ----------------------------------------------------------

    def onset_voltage_any(self) -> float:
        """Voltage where the *longest* excitation first misses timing
        (faults possible below this; none above)."""
        cfg = self.config
        factor = cfg.ddr_period / (
            cfg.critical_path_nominal * (cfg.excitation_base + cfg.excitation_span)
        )
        return self.timing.delay_model.voltage_for_factor(factor)

    def certain_fault_voltage(self) -> float:
        """Voltage below which even the *shortest* excitation misses
        timing, so P(fault) = 1."""
        cfg = self.config
        factor = cfg.ddr_period / (cfg.critical_path_nominal * cfg.excitation_base)
        return self.timing.delay_model.voltage_for_factor(factor)
