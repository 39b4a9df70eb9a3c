"""Shared power distribution network model.

The PDN is the *only* resource tenants share in the threat model, and the
whole attack flows through it twice: victim activity modulates the rail
voltage (sensed by the TDC), and striker activity collapses the rail
(faulting the victim's DSPs).

The model combines three droop mechanisms (see :class:`~repro.config.
PDNConfig`): a static IR term, a prompt one-pole high-frequency term, and a
resonant underdamped second-order term discretized with semi-implicit
Euler.  Both a streaming :meth:`step` API (for cycle-accurate
co-simulation) and a vectorized :meth:`simulate` API (for long traces) are
provided and produce identical results for identical inputs.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np
from scipy.signal import lfilter, lfiltic

from ..config import PDNConfig
from ..errors import SimulationError

__all__ = ["PowerDistributionNetwork"]


class PowerDistributionNetwork:
    """Discrete-time PDN shared by all tenants of one device.

    Parameters
    ----------
    config:
        Physical constants of the network.
    dt:
        Simulation timestep in seconds (one global tick).
    rng:
        Source for the gaussian supply-noise term; pass None for a
        noise-free network (useful in unit tests).
    """

    def __init__(self, config: PDNConfig, dt: float,
                 rng: Optional[np.random.Generator] = None) -> None:
        config.validate()
        if dt <= 0:
            raise SimulationError("PDN timestep must be positive")
        omega_n = 2.0 * math.pi * config.resonance_hz
        if omega_n * dt > 0.8:
            raise SimulationError(
                "PDN resonance under-resolved: omega_n*dt = "
                f"{omega_n * dt:.3f} > 0.8; decrease dt or resonance_hz"
            )
        self.config = config
        self.dt = dt
        self.rng = rng
        self._omega_n = omega_n
        # Prompt one-pole smoothing coefficient.
        self._alpha_prompt = 1.0 - math.exp(-dt / config.tau_prompt)
        self.reset()

    def reset(self) -> None:
        """Return to the settled idle operating point."""
        idle = self.config.idle_current
        self._y_res = self.config.r_resonant * idle
        self._y_res_vel = 0.0
        self._y_prompt = self.config.r_prompt * idle
        self._last_v = self._voltage_for(idle)

    @property
    def state(self) -> Tuple[float, float, float, float]:
        """Snapshot of the dynamic state ``(y_res, y_res_vel, y_prompt,
        last_v)``.  Assigning a previously captured snapshot restores
        the network bit-exactly — e.g. to reuse one settled operating
        point across many deterministic pricing simulations."""
        return (self._y_res, self._y_res_vel, self._y_prompt, self._last_v)

    @state.setter
    def state(self, snapshot: Tuple[float, float, float, float]) -> None:
        y_res, y_vel, y_prompt, last_v = snapshot
        self._y_res = float(y_res)
        self._y_res_vel = float(y_vel)
        self._y_prompt = float(y_prompt)
        self._last_v = float(last_v)

    # -- streaming ----------------------------------------------------------

    def step(self, load_current: float) -> float:
        """Advance one tick with ``load_current`` amps of *tenant* current
        (the idle/static current is added internally); returns rail volts."""
        if load_current < 0:
            raise SimulationError(f"negative load current: {load_current}")
        i_total = load_current + self.config.idle_current
        self._advance(i_total)
        self._last_v = self._voltage_for(i_total)
        return self._last_v

    @property
    def voltage(self) -> float:
        """Rail voltage after the most recent step."""
        return self._last_v

    def _advance(self, i_total: float) -> None:
        cfg = self.config
        target = cfg.r_resonant * i_total
        zeta, omega_n, dt = cfg.damping_ratio, self._omega_n, self.dt
        acc = omega_n * omega_n * (target - self._y_res) \
            - 2.0 * zeta * omega_n * self._y_res_vel
        self._y_res_vel += dt * acc
        self._y_res += dt * self._y_res_vel
        self._y_prompt += self._alpha_prompt * (cfg.r_prompt * i_total - self._y_prompt)

    def _voltage_for(self, i_total: float) -> float:
        cfg = self.config
        v = cfg.v_nominal - self._y_res - self._y_prompt - cfg.r_static * i_total
        if self.rng is not None and cfg.noise_sigma_v > 0:
            # numpy's own normal(0.0, sigma) formula, the same value
            # from the same stream without its per-call argument checks.
            v += 0.0 + cfg.noise_sigma_v * self.rng.standard_normal()
        return v

    # -- vectorized ----------------------------------------------------------

    def simulate(self, load_current: np.ndarray) -> np.ndarray:
        """Run the network over a whole current trace.

        Starts from the *current* state (call :meth:`reset` first for a
        settled start) and leaves the state at the end of the trace, so a
        simulate() call is equivalent to the same sequence of step() calls.

        Internally evaluated as two closed-form linear recurrences
        (``scipy.signal.lfilter``) instead of a per-tick Python loop;
        :meth:`step` is the reference implementation the fast path is
        pinned against (``tests/fpga/test_pdn.py`` and the hypothesis
        property suite) to float64 resolution.
        """
        currents = np.asarray(load_current, dtype=np.float64)
        if currents.ndim != 1:
            raise SimulationError("load_current must be a 1-D trace")
        if currents.shape[0] == 0:
            return np.empty(0, dtype=np.float64)
        if np.any(currents < 0):
            raise SimulationError("negative load current in trace")
        cfg = self.config
        i_total = currents + cfg.idle_current
        volts = self._simulate_lfilter(i_total)
        if self.rng is not None and cfg.noise_sigma_v > 0:
            volts += self.rng.normal(0.0, cfg.noise_sigma_v,
                                     size=volts.shape[0])
        self._last_v = float(volts[-1])
        return volts

    def simulate_batch(self, load_currents: np.ndarray) -> np.ndarray:
        """Run many same-length traces from the current state — purely.

        The 2-D map of :meth:`simulate`: row ``k`` of the result is
        bit-identical to ``simulate(load_currents[k])`` started from the
        *present* state, but unlike :meth:`simulate` the network state
        is left untouched, so every row sees the same initial
        conditions (``tests/fpga/test_pdn.py`` pins the row-for-row
        equality).  On a noisy network (``rng`` set) the noise matrix is
        drawn row-major, one row's worth per trace, and is the only
        state the call consumes.
        """
        traces = np.asarray(load_currents, dtype=np.float64)
        if traces.ndim != 2:
            raise SimulationError(
                "load_currents must be a 2-D (traces, ticks) array"
            )
        n_rows, n_ticks = traces.shape
        if n_rows == 0 or n_ticks == 0:
            return np.empty((n_rows, n_ticks), dtype=np.float64)
        if np.any(traces < 0):
            raise SimulationError("negative load current in trace")
        cfg = self.config
        i_total = traces + cfg.idle_current
        num, den, zi, num_p, den_p, zp = self._recurrence_filters()
        y, _ = lfilter(num, den, i_total, zi=np.tile(zi, (n_rows, 1)))
        yp, _ = lfilter(num_p, den_p, i_total, zi=np.tile(zp, (n_rows, 1)))
        volts = cfg.v_nominal - y - yp - cfg.r_static * i_total
        if self.rng is not None and cfg.noise_sigma_v > 0:
            volts += self.rng.normal(0.0, cfg.noise_sigma_v,
                                     size=volts.shape)
        return volts

    def _recurrence_filters(self):
        """Filter coefficients + initial conditions for the live state.

        The semi-implicit Euler update of :meth:`_advance` is the linear
        state recurrence ``s[k+1] = A s[k] + B i[k]`` with state
        ``s = (y_res, y_res_vel)``; the resonant droop read at tick ``k``
        is ``y[k] = C s[k+1]``.  Eliminating the velocity gives a direct
        second-order recurrence in ``y`` whose transfer function is
        ``(B0 + (a12*B1 - a22*B0) z^-1) / (1 - tr(A) z^-1 + det(A) z^-2)``
        — with initial conditions synthesized from the live ``(y, vel)``
        state (``y[-1] = y0`` and ``y[-2] = C A^-1 s0``, the output one
        virtual step back).  The prompt one-pole term is a first-order
        recurrence the same way.
        """
        cfg = self.config
        dt, wn = self.dt, self._omega_n
        g = 2.0 * cfg.damping_ratio * wn
        wn2 = wn * wn
        # State matrix of the semi-implicit Euler step.
        a11 = 1.0 - dt * dt * wn2
        a12 = dt * (1.0 - dt * g)
        a21 = -dt * wn2
        a22 = 1.0 - dt * g
        b0 = dt * dt * wn2 * cfg.r_resonant
        b1 = dt * wn2 * cfg.r_resonant
        trace = a11 + a22
        det = a11 * a22 - a12 * a21
        num = [b0, a12 * b1 - a22 * b0]
        den = [1.0, -trace, det]
        y0, vel0 = self._y_res, self._y_res_vel
        y_before = [y0, (a22 * y0 - a12 * vel0) / det]
        zi = lfiltic(num, den, y_before, [0.0, 0.0])
        alpha = self._alpha_prompt
        num_p = [alpha * cfg.r_prompt]
        den_p = [1.0, -(1.0 - alpha)]
        zp = lfiltic(num_p, den_p, [self._y_prompt])
        return num, den, zi, num_p, den_p, zp

    def _simulate_lfilter(self, i_total: np.ndarray) -> np.ndarray:
        """Vectorized trace evaluation via linear-recurrence filters
        (see :meth:`_recurrence_filters` for the derivation)."""
        cfg = self.config
        n = i_total.shape[0]
        num, den, zi, num_p, den_p, zp = self._recurrence_filters()
        y0 = self._y_res
        y, _ = lfilter(num, den, i_total, zi=zi)
        yp, _ = lfilter(num_p, den_p, i_total, zi=zp)

        volts = cfg.v_nominal - y - yp - cfg.r_static * i_total
        # Recover the final state: y[k] = y[k-1] + dt*vel[k].
        y_last = float(y[-1])
        y_prev = float(y[-2]) if n >= 2 else y0
        self._y_res = y_last
        self._y_res_vel = (y_last - y_prev) / self.dt
        self._y_prompt = float(yp[-1])
        return volts

    # -- analysis helpers -----------------------------------------------------

    def settle(self, load_current: float = 0.0, ticks: Optional[int] = None) -> float:
        """Step under a constant load until transients decay; returns volts."""
        if ticks is None:
            # ~6 decay time constants of the resonant envelope.
            tau = 1.0 / (self.config.damping_ratio * self._omega_n)
            ticks = max(16, int(6.0 * tau / self.dt))
        v = self._last_v
        for _ in range(ticks):
            v = self.step(load_current)
        return v

    def steady_state_voltage(self, load_current: float) -> float:
        """Closed-form settled voltage (no noise) under a constant load."""
        cfg = self.config
        i_total = load_current + cfg.idle_current
        return cfg.v_nominal - i_total * (cfg.r_resonant + cfg.r_prompt + cfg.r_static)
