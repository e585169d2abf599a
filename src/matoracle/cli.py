"""Benchmark command line: gen, run, verify, bench subcommands.

Exit codes: 0 when every trial is correct and within its bound, 1 on a
violation, an incorrect output or an unchecked certificate, 2 on a malformed
spec or command line or an output file that cannot be written.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bench import (
    ALGORITHMS,
    INTERSECTION_ALGS,
    WEIGHTED_ALGS,
    InstanceSpec,
    InvalidSpec,
    family_instance,
    generate,
    group_params,
    is_family_group,
    plot_data_series,
    run_trial,
    summary_lines,
    sweep,
    unverified_record,
)
from .oracles import TranscriptNotStored


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InvalidSpec(path, f"cannot read: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidSpec(path, f"not valid JSON: {exc}") from exc


def _load_instance(path):
    return InstanceSpec.from_dict(_load_json(path))


def _cmd_gen(args):
    cfg = _load_json(args.spec)
    if is_family_group(cfg):
        inst = family_instance(cfg["family"], **group_params(cfg))
    else:
        inst = InstanceSpec.from_dict(cfg)
    generate(inst)  # a spec that run would reject is not written
    with open(args.out, "w") as fh:
        fh.write(inst.to_json() + "\n")
    print(f"wrote {inst.instance_id} to {args.out}")
    return 0


def _cmd_run(args):
    inst = _load_instance(args.instance)
    rec = run_trial(inst, args.alg, k=args.k, p=args.p)
    with open(args.out, "w") as fh:
        fh.write(rec.to_json() + "\n")
    status = "ok"
    if rec.error:
        status = rec.error
    elif rec.within_bound is False or rec.correct is False:
        status = "VIOLATION"
    print(f"{rec.instance_id} {rec.algorithm}: clean={rec.clean_queries} bound={rec.bound} [{status}]")
    return 0 if status == "ok" else 1


def _compatible_algorithms(inst):
    if inst.is_intersection:
        return sorted(INTERSECTION_ALGS)
    # the unit-weight rule run_trial applies to the unweighted algorithms
    if generate(inst).ground.unit_weights:
        return [a for a in ALGORITHMS if a not in INTERSECTION_ALGS and a != "pairquery"]
    return ["greedy"] + sorted(WEIGHTED_ALGS)


def _cmd_verify(args):
    inst = _load_instance(args.instance)
    if not args.all:
        print("nothing to do (pass --all)", file=sys.stderr)
        return 2
    failures = 0
    for algo in _compatible_algorithms(inst):
        try:
            rec = run_trial(inst, algo, k=args.k, p=args.p)
        except TranscriptNotStored as exc:
            # like a bench row: this tag fails, the others still run
            rec = unverified_record(inst, algo, args.k, args.p, exc)
        ok = not rec.error and rec.correct is not False and rec.within_bound is not False
        cert = f" cert={rec.certificate}" if rec.certificate != "n/a" else ""
        print(
            f"{'PASS' if ok else 'FAIL'} {algo}: clean={rec.clean_queries} "
            f"bound={rec.bound} correct={rec.correct}{cert}"
            + (f" error={rec.error}" if rec.error else "")
        )
        failures += 0 if ok else 1
    return 1 if failures else 0


def _cmd_bench(args):
    config = _load_json(args.config)
    if not isinstance(config, dict):
        raise InvalidSpec(args.config, "a sweep config must be a JSON object")
    records, violations = sweep(config, out_path=args.out)
    for line in summary_lines(records):
        print(line)
    print(f"{len(records)} rows -> {args.out}; violations={len(violations)}")
    if args.plot_data:
        series = plot_data_series(records)
        with open(args.plot_data, "w") as fh:
            json.dump(series, fh, indent=1, sort_keys=True)
        print(f"plot series -> {args.plot_data}")
    return 1 if violations else 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="matoracle", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="materialize an instance from a generator spec")
    p_gen.add_argument("--spec", required=True)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_gen)

    p_run = sub.add_parser("run", help="run one algorithm on one instance")
    p_run.add_argument("--instance", required=True)
    p_run.add_argument("--alg", required=True, choices=[a for a in ALGORITHMS])
    p_run.add_argument("--k", type=int, default=None)
    p_run.add_argument("--p", type=int, default=None)
    p_run.add_argument("--out", required=True)
    p_run.set_defaults(func=_cmd_run)

    p_verify = sub.add_parser("verify", help="run every compatible algorithm plus checks")
    p_verify.add_argument("--instance", required=True)
    p_verify.add_argument("--all", action="store_true")
    p_verify.add_argument("--k", type=int, default=None)
    p_verify.add_argument("--p", type=int, default=None)
    p_verify.set_defaults(func=_cmd_verify)

    p_bench = sub.add_parser("bench", help="run a sweep config and write CSV results")
    p_bench.add_argument("--config", required=True)
    p_bench.add_argument("--out", required=True)
    p_bench.add_argument("--plot-data", default=None)
    p_bench.set_defaults(func=_cmd_bench)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidSpec as exc:
        print(f"matoracle: invalid spec: {exc}", file=sys.stderr)
        return 2
    except TranscriptNotStored as exc:
        print(f"matoracle: certificate not checked: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # inputs are read through _load_json, so this is an output file
        print(f"matoracle: cannot write {exc.filename}: {exc.strerror or exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
