#!/usr/bin/env python3
"""A full remote attacker session over the UART channel (paper §IV).

"The adversary connects to this prototyped cloud-FPGA from the UART
serial port, with which the adversary can gather on-chip side-channel
leakage from the TDC-based delay-sensor and dynamically configure the
attacking scheme file."  This example replays that session: connect,
watch the victim, upload a scheme, observe the strike landing, then
retarget at run time — all through framed serial messages.

Run:  python examples/remote_session.py
"""

from repro.analysis import line_chart
from repro.core import AttackScheme, RemoteAttacker, UARTLink
from repro.nn import build_probe_model, quantize_model
from repro.nn.model import PROBE_INPUT_SHAPE
from repro.testbed import build_attack_testbed


def main() -> None:
    testbed = build_attack_testbed(quantize_model(build_probe_model()),
                                   input_shape=PROBE_INPUT_SHAPE,
                                   bank_cells=5500, seed=99)
    engine = testbed.engine
    remote = RemoteAttacker(UARTLink(), testbed.scheduler)
    inference_ticks = (engine.schedule.total_cycles + 400) * 2

    print("[host] connected over UART to the attacker tenant")

    # --- Session step 1: passive observation -----------------------------
    testbed.board.reset()
    testbed.scheduler.load_scheme(AttackScheme(10, 5, 0))  # watch only
    testbed.run(inference_ticks)
    trace = remote.download_trace(max_samples=4096)
    print(f"[host] downloaded {trace.size} sensor samples")
    print(line_chart(trace, height=8, width=100,
                     title="[host] victim activity (no strikes):"))

    # --- Session step 2: strike the long conv layer ----------------------
    conv = engine.schedule.window("conv3x3")
    trigger = engine.schedule.windows()[0].start_cycle + 2
    scheme = AttackScheme(
        attack_delay=conv.start_cycle - trigger,
        attack_period=25,
        number_of_attacks=60,
    )
    ok = remote.upload_scheme(scheme)
    print(f"\n[host] uploaded scheme targeting conv3x3 "
          f"(delay={scheme.attack_delay}, period={scheme.attack_period}, "
          f"attacks={scheme.number_of_attacks}) -> "
          f"{'ACK' if ok else 'NAK'}")
    testbed.board.reset()
    testbed.scheduler.load_scheme(scheme)  # device applies the new file
    testbed.run(inference_ticks)
    struck_trace = remote.download_trace(max_samples=4096)
    print(line_chart(struck_trace, height=8, width=100,
                     title="[host] victim activity under strikes:"))
    print(f"[host] deepest readout: {struck_trace.min()} "
          f"(was {trace.min()} without strikes)")

    # --- Session step 3: retarget at run time -----------------------------
    late = engine.schedule.window("conv1x1")
    retarget = AttackScheme(
        attack_delay=late.start_cycle - trigger,
        attack_period=12,
        number_of_attacks=30,
    )
    ok = remote.upload_scheme(retarget)
    print(f"\n[host] retargeted to conv1x1 at run time -> "
          f"{'ACK' if ok else 'NAK'}")

    # A malformed upload is refused by the device.
    from repro.core.remote import encode_frame

    remote.link.host_send(encode_frame(0x01, b"\x00" * 7))  # bad length
    remote.service_device()
    from repro.core.remote import decode_frame

    opcode, _ = decode_frame(remote.link.host_recv())
    print(f"[host] malformed upload correctly refused "
          f"(opcode 0x{opcode:02x} = NAK)")


if __name__ == "__main__":
    main()
