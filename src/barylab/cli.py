"""Batch front-end: solve barycenter problems, sweep phase diagrams, run
subdivisions and retraction pipelines, and emit certificates/reports/CSV.

Exit codes: 0 success / found; 1 malformed input or usage error; 2 barycenter
not found; 3 indeterminate; 4 verification-gate failure.  Outputs are written
atomically (temp file + rename) and are byte-identical for identical configs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

from . import barycenters, scenes, simplicial, spaces, subdivision
from .errors import GeometryError


def _atomic_write(path, text):
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".barylab-")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _dump_json(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _load_input(path):
    """The JSON document at `path`; no input field is boolean, so one raises,
    and so does a document nested past the interpreter's recursion limit."""
    with open(path) as f:
        try:
            doc = json.load(f)
        except RecursionError:
            raise ValueError("the document is nested too deeply to read") from None
    todo = [("", doc)]  # (path, value), breadth first: the loop visits what it appends
    for where, x in todo:
        if isinstance(x, bool):
            raise ValueError(f"{where or 'the document'} is the boolean {json.dumps(x)}")
        if isinstance(x, dict):
            todo += [(f"{where}.{k}" if where else k, v) for k, v in x.items()]
        elif isinstance(x, list):
            todo += [(f"{where}[{i}]", v) for i, v in enumerate(x)]
    return doc


def _number(x, what, least=None):
    """float(x), or, given least, x itself if an int >= least."""
    if least is not None and not (isinstance(x, int) and x >= least):
        raise ValueError(f"{what} {x!r} is not a whole number >= {least}")
    return float(x) if least is None else x


def cmd_barycenter(args):
    try:
        doc = _load_input(args.input)
        prob, raw = barycenters.load_problem(doc)
        if not prob.P:
            raise ValueError("P must be nonempty")
        lam = _number(args.lam if args.lam is not None else raw["lambda"], "lambda")
        if not math.isfinite(lam):
            raise ValueError(f"lambda {lam} is not finite")
        if args.tol is not None:
            if not 0.0 < args.tol < math.inf:
                raise ValueError(f"tol {args.tol} is not positive and finite")
            prob.space = spaces.ModelSpace(
                prob.space.kind, prob.space.dim, prob.space.radius,
                prob.space.matrix, args.tol)
    except (KeyError, TypeError, ValueError, OSError, GeometryError) as exc:
        print(f"barylab barycenter: bad input: {exc}", file=sys.stderr)
        return 1
    cert = barycenters.solve_barycenter(prob, lam)
    _atomic_write(args.output, _dump_json(cert.to_json()))
    if cert.status == "found":
        return 0
    if cert.status == "not_found_below":
        return 2
    return 3


def cmd_phase(args):
    try:
        doc = _load_input(args.input)
        space = spaces.ModelSpace.from_json(doc["space"])
        barycenters.check_sampled(space)
        lambdas = [_number(x, "lambda") for x in doc["lambdas"]]
        deltas = [_number(x, "delta") for x in doc["deltas"]]
        bad = [x for x in lambdas + deltas if not 0.0 < x < math.inf]
        if bad:
            raise ValueError(f"lambdas and deltas must be positive and finite, not {bad[0]}")
        trials = _number(args.trials if args.trials is not None else doc.get("trials", 100),
                         "trials", 1)
    except (KeyError, TypeError, ValueError, OSError, GeometryError) as exc:
        print(f"barylab phase: bad input: {exc}", file=sys.stderr)
        return 1
    lines = ["# barylab phase sweep v1", "lambda,delta,trials,pass_rate,worst_witness"]
    for lam in lambdas:
        for delta in deltas:
            rep = barycenters.has_barycenters_sample(space, lam, delta, trials,
                                                     seed=args.seed)
            worst = "-"
            if rep.worst is not None and rep.pass_rate < 1.0:
                worst = json.dumps(rep.worst, sort_keys=True).replace(",", ";")
            lines.append(f"{lam:.17g},{delta:.17g},{trials},{rep.pass_rate:.17g},"
                         f"{worst}")
    _atomic_write(args.output, "\n".join(lines) + "\n")
    return 0


def cmd_subdivide(args):
    try:
        doc = _load_input(args.input)
        space = spaces.ModelSpace.from_json(doc["space"])
        complex_ = simplicial.SimplicialComplex.from_json(doc["complex"])
        violations = simplicial.validate(complex_)
        if violations:
            raise ValueError(f"complex: {violations[0]}")
        iota = simplicial.VertexMap.from_json(space, doc["vertex_map"])
        iota.check_total(complex_)
        lam = _number(args.lam if args.lam is not None else doc["lambda"], "lambda")
        if not 0.0 < lam < 1.0:
            raise ValueError(f"lambda {lam} outside (0, 1)")
        order = _number(args.order if args.order is not None else doc.get("order", 1),
                        "order", 0)
        simplicial.check_budget(complex_.counts, order)
    except (KeyError, TypeError, ValueError, OSError, GeometryError) as exc:
        print(f"barylab subdivide: bad input: {exc}", file=sys.stderr)
        return 1
    try:
        result = subdivision.iterate_subdivision(complex_, iota, lam, order)
    except GeometryError as exc:
        print(f"barylab subdivide: {exc}", file=sys.stderr)
        return 4
    _atomic_write(args.output, result.record.to_csv())
    verdict = subdivision.verify_shrinking(result.record)
    if not verdict.ok:
        print(f"barylab subdivide: {len(verdict.violations)} bound violations",
              file=sys.stderr)
        return 4
    return 0


def cmd_retract(args):
    try:
        doc = _load_input(args.input)
        if "scene" in doc:
            overrides = doc.get("overrides", {})
            scene = scenes.SCENE_BUILDERS[doc["scene"]](**overrides)
        else:
            scene = scenes.Scene.from_json(doc)
        lam = args.lam if args.lam is not None else scene.lam
        if not 0.0 < lam < 1.0:
            raise ValueError(f"lambda {lam} outside (0, 1)")
        order = _number(args.order if args.order is not None else scene.order, "order", 0)
        scenes.check_density(args.density)
    except (KeyError, TypeError, ValueError, OverflowError, OSError, GeometryError) as exc:
        print(f"barylab retract: bad input: {exc}", file=sys.stderr)
        return 1
    report = scenes.run_pipeline(scene, lam=lam, order=order,
                                 density=args.density, seed=args.seed)
    _atomic_write(args.output, _dump_json(report.to_json()))
    _atomic_write(args.output + ".csv", report.samples_csv())
    if not report.ok:
        failing = [k for k, v in report.gates.items() if not v]
        msg = report.failure["message"] if report.failure else ", ".join(failing)
        print(f"barylab retract: gate failure: {msg}", file=sys.stderr)
        return 4
    return 0


# each subcommand accepts only the flags it honours
_FLAGS = {
    "--seed": (dict(type=int, default=0), ("phase", "retract")),
    "--tol": (dict(type=float, default=None), ("barycenter",)),
    "--trials": (dict(type=int, default=None), ("phase",)),
    "--density": (dict(type=int, default=200), ("retract",)),
    "--lambda": (dict(dest="lam", type=float, default=None),
                 ("barycenter", "subdivide", "retract")),
    "--order": (dict(type=int, default=None), ("subdivide", "retract")),
}


def build_parser():
    p = argparse.ArgumentParser(prog="barylab")
    sub = p.add_subparsers(dest="command", required=True)
    for name, fn in [("barycenter", cmd_barycenter), ("phase", cmd_phase),
                     ("subdivide", cmd_subdivide), ("retract", cmd_retract)]:
        sp = sub.add_parser(name)
        sp.add_argument("--input", required=True)
        sp.add_argument("--output", required=True)
        for flag, (kwargs, commands) in _FLAGS.items():
            if name in commands:
                sp.add_argument(flag, **kwargs)
        sp.set_defaults(fn=fn)
    return p


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: usage error (2) or --help (0)
        return 1 if exc.code else 0
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
