"""Byte-identity fingerprint of the package's outputs.

Prints one SHA-256 and record count per output family, so that two
checkouts can be compared for identical behaviour on valid and invalid
input alike:

* ``sessions``: ``run_session`` reprs over configs x k x eps x feedback
  delay x policy x payload mode, each counting-mode one with its
  encoder's ``phase_sent`` items, and a few k = 20000 sessions;
* ``transfer``: ``transfer`` output digests and reports (or the error
  raised) over configs x symbol sizes x eps x input lengths;
* ``frames``: every data, feedback and header frame those transfers send,
  each frame's ``decode_frame`` repr, and the outcome of decoding seeded
  mutations of a data, a feedback and a header frame;
* ``monte_carlo``: ``aggregate_csv`` and ``summary_json`` at jobs 1 and 2;
* ``sweep``: ``sweep_epsilon`` results at jobs 1 and 2;
* ``curves``: ``expected_curve`` bytes (or the error raised);
* ``predict``: ``fountain-lab predict`` CSVs and exit codes;
* ``runs``: ``degree._degree_runs`` tuples, the completion table's runs of
  equal degree, for k = 2..400 and a dozen k up to 25200000 (0.1 s).

Run it against the checkout whose package is on the path::

    PYTHONPATH=src python tests/fingerprint.py            # about 10 s on 2 vCPUs
    PYTHONPATH=src python tests/fingerprint.py --quick    # a subset, under 1 s

and against another checkout with ``PYTHONPATH=<checkout>/src``.  Pytest
does not collect this file.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import random
import sys
import tempfile
import time
import warnings
import zlib
from contextlib import contextmanager

import fountain_lab
from fountain_lab import cli, degree, sim, wire
from fountain_lab.analytics import expected_curve
from fountain_lab.graph import SourceBlock
from fountain_lab.schemes import OFC, OFCNB, SOFC, EveryDegreeChange, FeedbackKind, Threshold
from fountain_lab.sim import aggregate_csv, monte_carlo, run_session, summary_json, sweep_epsilon

FAMILIES = ("sessions", "transfer", "frames", "monte_carlo", "sweep", "curves", "predict", "runs")
# The errors the package documents for its calls: ValueError (FrameError
# among them), TransferFailed (a RuntimeError) and PayloadMismatch (an
# AssertionError).  A record holds the error in place of the result.
EXPECTED_ERRORS = (ValueError, RuntimeError, AssertionError)


class Digests:
    def __init__(self):
        self.hashes = {name: hashlib.sha256() for name in FAMILIES}
        self.counts = dict.fromkeys(FAMILIES, 0)

    def add(self, family: str, record) -> None:
        data = record if isinstance(record, bytes) else str(record).encode()
        h = self.hashes[family]
        h.update(len(data).to_bytes(8, "big"))
        h.update(data)
        self.counts[family] += 1

    def outcome(self, family: str, call, *args, **kwargs) -> None:
        """Record ``repr`` of ``call``'s result, or the documented error it raises."""
        try:
            result = call(*args, **kwargs)
        except EXPECTED_ERRORS as exc:
            self.add(family, f"{type(exc).__name__}: {exc}")
        else:
            self.add(family, repr(result))


def counted_session(config, k, eps, policy, seed, trial_id, feedback_delay):
    """A counting-mode ``run_session`` result and its encoder's ``phase_sent`` items."""
    result, enc, _ = sim._drive(
        config, SourceBlock(k, (b"",) * k), eps, policy, seed, trial_id, None, sim._ObjectLink(),
        feedback_delay=feedback_delay,
    )
    return result, tuple(enc.phase_sent.items())


def sessions(d: Digests, quick: bool) -> None:
    configs = [OFC(), OFCNB(0.01), OFCNB(0.3), SOFC()]
    if not quick:
        configs[1:1] = [OFC(0.3)]
        configs[-1:-1] = [OFCNB(0.7)]
    ks = (5, 22, 400) if quick else (5, 22, 400, 1024)
    epss = (0.0, 0.1) if quick else (0.0, 0.1, 0.5)
    policies = (EveryDegreeChange(),) if quick else (EveryDegreeChange(), Threshold())
    for config in configs:
        for k in ks:
            for eps in epss:
                for delay in (0, 3):
                    for policy in policies:
                        d.outcome("sessions", counted_session, config, k, eps, policy, k + delay, 1, delay)
                        d.outcome(
                            "sessions", run_session, config, k, eps, policy,
                            seed=k + delay, trial_id=1, payload_mode="full", feedback_delay=delay,
                        )
    if not quick:
        for config in (OFC(), OFCNB(0.01), SOFC()):
            d.outcome("sessions", run_session, config, 20000, 0.1, seed=1)
        d.outcome("sessions", run_session, OFC(), 400, 0.1, budget=420)      # runs out of budget
        d.outcome("sessions", run_session, OFC(), 400, 0.1, budget=399)      # below k


@contextmanager
def recording_frames(d: Digests):
    """Record every frame the framed link encodes while the block runs."""
    real_data, real_feedback, real_header = wire.encode_data, wire.encode_feedback, wire.encode_header

    def record(frame: bytes) -> bytes:
        d.add("frames", frame)
        d.add("frames", repr(wire.decode_frame(frame)))
        return frame

    wire.encode_data = lambda sym, session_id, seq_no: record(real_data(sym, session_id, seq_no))
    wire.encode_feedback = lambda msg, session_id: record(real_feedback(msg, session_id))
    wire.encode_header = lambda header: record(real_header(header))
    try:
        yield
    finally:
        wire.encode_data, wire.encode_feedback, wire.encode_header = real_data, real_feedback, real_header


def transfers(d: Digests, quick: bool) -> None:
    configs = [OFC(), OFCNB(0.01), SOFC()] if quick else [OFC(), OFCNB(0.01), OFCNB(0.3), SOFC()]
    sizes = (16, 64, 1024) if quick else (1, 16, 63, 64, 255, 256, 257, 1024, 4096)
    epss = (0.1,) if quick else (0.0, 0.1)
    lengths = (3000,) if quick else (5, 3000, 70000)
    runs = [
        (config, size, eps, length, EveryDegreeChange(), None)
        for config in configs for size in sizes for eps in epss for length in lengths
    ]
    if not quick:
        runs += [
            (SOFC(), 64, 0.1, 3000, Threshold(0.05), None),
            (OFC(), 64, 0.5, 3000, EveryDegreeChange(), 60),        # runs out of budget
            (OFC(), 64, 0.1, 3000, EveryDegreeChange(), 10),        # budget below k
            (SOFC(), 70000, 0.0, 140000, EveryDegreeChange(), None),  # symbol size too large
        ]
    for i, (config, size, eps, length, policy, budget) in enumerate(runs):
        data = random.Random(i).randbytes(length)
        with recording_frames(d):
            try:
                out, report = wire.transfer(
                    data, config, eps, seed=i, symbol_size=size, policy=policy, budget=budget,
                )
            except wire.TransferFailed as exc:
                d.add("transfer", f"TransferFailed: {exc} {exc.report!r}")
                continue
            except EXPECTED_ERRORS as exc:
                d.add("transfer", f"{type(exc).__name__}: {exc}")
                continue
        d.add("transfer", hashlib.sha256(out).hexdigest() + repr(report))


def mutated_frames(d: Digests, quick: bool) -> None:
    """Decode outcomes of seeded overwrites, truncations and extensions.

    Half the mutated frames keep the old CRC-32, half are resealed with a
    valid one, so that the checks behind the CRC check are reached.
    """
    sym = fountain_lab.CodedSymbol((1, 5, 9), bytes(range(40)))
    goods = [
        wire.encode_data(sym, 3, 17),
        wire.encode_feedback(fountain_lab.FeedbackMsg(FeedbackKind.BETA_UPDATE, 12), 3),
        wire.encode_header(wire.SessionHeader(3, 64, 1024, 65000)),
    ]
    rng = random.Random(29)
    for _ in range(300 if quick else 3000):
        good = rng.choice(goods)
        body = bytearray(good[:-4])
        op = rng.randrange(3)
        if op == 0:
            body[rng.randrange(len(body))] = rng.randrange(256)
        elif op == 1:
            del body[rng.randrange(len(body)):]
        else:
            body += rng.randbytes(rng.randint(1, 8))
        crc = zlib.crc32(body).to_bytes(4, "big") if rng.randrange(2) else good[-4:]
        d.outcome("frames", wire.decode_frame, bytes(body) + crc)


def aggregates(d: Digests, quick: bool) -> None:
    configs = [OFCNB(0.01)] if quick else [OFC(), OFCNB(0.01), SOFC()]
    for config in configs:
        for eps in ((0.1,) if quick else (0.0, 0.1)):
            for jobs in (1, 2):
                agg = monte_carlo(config, 200, eps, trials=6, seed=5, jobs=jobs)
                d.add("monte_carlo", aggregate_csv(agg))
                d.add("monte_carlo", summary_json(agg))
    if not quick:
        for jobs in (1, 2):
            agg = monte_carlo(OFC(), 200, 0.5, trials=4, policy=Threshold(), seed=6, jobs=jobs, budget=260)
            d.add("monte_carlo", aggregate_csv(agg))
            d.add("monte_carlo", summary_json(agg))
    grid = (0.0, 0.3) if quick else (0.0, 0.2, 0.4, 0.6)
    for jobs in ((1,) if quick else (1, 2)):
        result = sweep_epsilon(100, grid, trials=4, seed=3, jobs=jobs)
        d.add("sweep", repr(result))
        d.add("sweep", repr(result.crossover))


def curves(d: Digests, quick: bool) -> None:
    configs = [OFC(), OFCNB(0.3), SOFC()]
    if not quick:
        configs += [OFC(0.3), OFCNB(0.01), OFCNB(0.7)]
    ks = (36, 1000) if quick else (2, 3, 7, 36, 205, 1000, 4096, 100000)
    for config in configs:
        for k in ks:
            for eps in ((0.0, 0.1) if quick else (0.0, 0.1, 0.6)):
                try:
                    d.add("curves", expected_curve(config, k, eps).tobytes())
                except EXPECTED_ERRORS as exc:
                    d.add("curves", f"{type(exc).__name__}: {exc}")


def predicts(d: Digests, quick: bool) -> None:
    schemes = [["--scheme", "ofc"], ["--scheme", "ofcnb", "--gamma0", "0.01"], ["--scheme", "sofc"]]
    if not quick:
        schemes.append(["--scheme", "ofcnb", "--gamma0", "0.3"])
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "p.csv")
        for scheme in schemes:
            for k in ((50, 1024) if quick else (2, 50, 1024, 100000)):
                for eps in ((0.1,) if quick else (0.0, 0.1)):
                    code = cli.main(["predict", *scheme, "--k", str(k), "--eps", str(eps), "--out", out])
                    with open(out, "rb") as fh:
                        d.add("predict", str(code).encode() + fh.read())
                    os.remove(out)


def degree_runs(d: Digests, quick: bool) -> None:
    ks = [*range(2, 401), 1000, 1024, 4096, 25_200, 100_000]
    if not quick:
        ks += [252_000, 1_000_000, 10_000_000, 25_200_000]
    for k in ks:
        d.add("runs", repr(tuple(degree._degree_runs(k))))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true", help="run a subset in seconds")
    quick = parser.parse_args(argv).quick
    print(f"fingerprinting {os.path.dirname(fountain_lab.__file__)}", file=sys.stderr)
    start = time.perf_counter()
    d = Digests()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # OFCNB(0.7) warns on creation
        sessions(d, quick)
        transfers(d, quick)
        mutated_frames(d, quick)
        aggregates(d, quick)
        curves(d, quick)
        predicts(d, quick)
        degree_runs(d, quick)
    for name in FAMILIES:
        print(f"{name:12} {d.counts[name]:6d} {d.hashes[name].hexdigest()}")
    print(f"done in {time.perf_counter() - start:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
