"""Command line front end of the workbench.

Verbs:
  classify   ring / type / group cell of one algebra
  table      regenerate a full 8x8 classification grid
  ext-group  extended automorphism matrices of a spinbasis, with the signed
             8x8 multiplication table
  cover      double covers of the reflection group (PT, or CPT with --cpt)
  quotient   odd-dimensional collapse: idempotents, surviving symmetries,
             class and covering labels, plus the collapsed-representation grid
  verify     run a named validation suite; exit 1 with counterexample JSON
             on any falsified check

This module parses arguments, calls the library and renders the result; the
suites themselves live in cliffork.verify.  Output is markdown unless
--format json.  Both renderings are deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import List, Optional, Sequence, Tuple

from .classification import (
    TABLE_KINDS,
    build_table,
    classification_summary,
    complex_matrix_dimension,
    complex_ring_label,
)
from .core_algebra import SignatureSpec, volume_square_sign
from .coverings import cpt_structure, pt_structure, signature_text
from .ext_automorphisms import MATRIX_NAMES, PHYSICAL_NAMES, ext_group_report, signed_letter_table
from .quotient import (
    central_idempotents,
    epsilon_context,
    quotient_class,
    quotient_group,
    transfer_report,
)
from .spinor_repr import build_spinbasis, load_spinbasis
from .verify import SUITE_NAMES, run_suite

SCHEMA = "cliffork/1"


# ---------------------------------------------------------------------------
# rendering


def _md_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    out = ["| " + " | ".join(headers) + " |",
           "|" + "|".join(" --- " for _ in headers) + "|"]
    out += ["| " + " | ".join(str(c) for c in row) + " |" for row in rows]
    return "\n".join(out)


def _emit(payload: dict, lines: List[str], fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, indent=1, sort_keys=True)
    return "\n".join(lines)


def _grid_lines(title: str, cells: List[List[str]], max_index: int) -> List[str]:
    headers = ["q \\ p"] + [str(p) for p in range(max_index + 1)]
    rows = [[str(q)] + cells[q] for q in range(max_index + 1)]
    return [f"## {title}", "", _md_table(headers, rows)]


# ---------------------------------------------------------------------------
# verbs


def _cmd_classify(args) -> Tuple[int, str]:
    if args.complex is not None:
        n = args.complex
        payload = {
            "schema": SCHEMA, "verb": "classify", "field": "C", "n": n,
            "ring": complex_ring_label(n),
            "matrix_dimension": complex_matrix_dimension(n),
        }
        lines = [f"# C({n})", "",
                 f"- ring: {payload['ring']}",
                 f"- matrix dimension: {payload['matrix_dimension']}"]
        if args.mark is not None:
            p, q = args.mark
            if p + q != n:
                raise ValueError(f"mark ({p},{q}) does not sum to n={n}")
            summary = classification_summary(p, q)
            payload["mark"] = summary
            lines += ["", f"## marked real form Cl({p},{q})", ""]
            lines += [f"- {k}: {v}" for k, v in summary.items()]
        return 0, _emit(payload, lines, args.format)

    summary = classification_summary(args.p, args.q)
    payload = {"schema": SCHEMA, "verb": "classify", "field": "R", **summary}
    lines = [f"# Cl({args.p},{args.q})", ""]
    lines += [f"- {k}: {v}" for k, v in summary.items()]
    return 0, _emit(payload, lines, args.format)


def _cmd_table(args) -> Tuple[int, str]:
    cells = build_table(args.kind, args.max)
    payload = {"schema": SCHEMA, "verb": "table", "kind": args.kind,
               "max_index": args.max, "rows_are_q": True, "cells": cells}
    lines = _grid_lines(f"{args.kind} (0 <= p,q <= {args.max})", cells, args.max)
    return 0, _emit(payload, lines, args.format)


def _cmd_ext_group(args) -> Tuple[int, str]:
    if args.basis is not None:
        if args.p is not None or args.q is not None:
            raise ValueError("give either --basis or --p/--q, not both")
        basis = load_spinbasis(args.basis)
    else:
        if args.p is None or args.q is None:
            raise ValueError("ext-group needs --p and --q, or --basis <file|gamma>")
        basis = build_spinbasis(SignatureSpec(args.p, args.q))
    report = ext_group_report(basis)
    elements, cells = signed_letter_table(report.matrices)
    cells = [[cell or "?" for cell in row] for row in cells]

    payload = {
        "schema": SCHEMA, "verb": "ext-group", "sig": str(report.sig),
        "basis": basis.name,
        "census": {"real_symmetric": report.census.v, "real_skew": report.census.u,
                   "imaginary_symmetric": report.census.l, "imaginary_skew": report.census.m},
        "matrices": {
            name: {"factor_units": list(report.matrices[name].factors),
                   "square_sign": report.matrices[name].square_sign,
                   "form": report.matrices[name].form}
            for name in MATRIX_NAMES
        },
        "signature": list(report.signature),
        "pi_bar_sign": report.pi_bar_sign,
        "abelian": report.abelian,
        "order_structure": list(report.order_structure),
        "group": report.group_name,
        "abstract_signed_group": report.abstract_group,
        "table": {"elements": elements, "cells": cells},
        "notes": list(report.notes),
    }
    lines = [f"# Extended automorphisms of {report.sig} ({basis.name} basis)", ""]
    lines += [f"- signature: {signature_text(report.signature)}",
              f"- group: {report.group_name} "
              f"(order structure {report.order_structure}, "
              f"{'Abelian' if report.abelian else 'non-Abelian'})",
              f"- abstract signed group: {report.abstract_group}",
              f"- conjugation square sign: {report.pi_bar_sign}", ""]
    lines += [_md_table(["matrix", "factor units", "square", "form"],
                        [[name, " ".join(str(i) for i in report.matrices[name].factors) or "-",
                          f"{report.matrices[name].square_sign:+d}",
                          report.matrices[name].form] for name in MATRIX_NAMES])]
    lines += ["", "## Multiplication table", "",
              _md_table([" "] + elements,
                        [[elements[i]] + cells[i] for i in range(len(elements))])]
    if report.notes:
        lines += ["", "## Notes", ""] + [f"- {n}" for n in report.notes]
    return 0, _emit(payload, lines, args.format)


def _cmd_cover(args) -> Tuple[int, str]:
    if args.complex is not None:
        if args.cpt:
            raise ValueError("CPT covers are reported for real quaternionic "
                             "signatures; use --p/--q with --cpt")
        rep = pt_structure(args.complex)
    elif args.cpt:
        rep = cpt_structure(args.p, args.q)
    else:
        rep = pt_structure(args.p, args.q)
    where = str(rep.sig) if rep.sig is not None else f"C({rep.n})"
    payload = {
        "schema": SCHEMA, "verb": "cover", "where": where, "field": rep.field,
        "ring": rep.ring,
        "signature": list(rep.signature) if rep.signature else None,
        "admissible": [list(s) for s in rep.admissible],
        "cover_group": rep.cover_group,
        "automorphism_group": rep.automorphism_group,
        "cliffordian": rep.cliffordian,
        "notes": list(rep.notes),
    }
    kind = "CPT" if len(rep.admissible[0]) == 7 else "PT"
    lines = [f"# {kind} covering structure of {where}", "",
             f"- ring: {rep.ring}",
             f"- signature: {signature_text(rep.signature) if rep.signature else 'not pinned'}",
             f"- admissible: {', '.join(signature_text(s) for s in rep.admissible)}",
             f"- cover group: {rep.cover_group}",
             f"- automorphism group: {rep.automorphism_group}",
             f"- Cliffordian: {rep.cliffordian}"]
    if rep.notes:
        lines += ["", "## Notes", ""] + [f"- {n}" for n in rep.notes]
    return 0, _emit(payload, lines, args.format)


def _cmd_quotient(args) -> Tuple[int, str]:
    notes: List[str] = []
    if args.complex is not None:
        if args.mark is None:
            raise ValueError("quotient --complex N needs --mark P,Q")
        p, q = args.mark
        if p + q != args.complex:
            raise ValueError(f"mark ({p},{q}) does not sum to n={args.complex}")
        ctx = epsilon_context(SignatureSpec(p, q, "C"))
    else:
        sig = SignatureSpec(args.p, args.q)
        if sig.n % 2 == 1 and volume_square_sign(sig.p, sig.q) == -1:
            # no real unit scalar squares to -1: collapse the complexification
            ctx = epsilon_context(SignatureSpec(sig.p, sig.q, "C"))
            notes.append(
                f"omega^2 = -1 in {sig}: collapsed the complexified algebra "
                f"with mark ({sig.p},{sig.q}) instead"
            )
        else:
            ctx = epsilon_context(sig)

    lam_p, lam_m = central_idempotents(ctx)
    transfers = transfer_report(ctx)
    cls = quotient_class(ctx)
    grp = quotient_group(ctx)
    grid = build_table("representations-eps", 7)

    payload = {
        "schema": SCHEMA, "verb": "quotient", "sig": str(ctx.sig),
        "epsilon": str(ctx.epsilon),
        "omega": str(ctx.omega),
        "idempotents": {"plus": str(lam_p), "minus": str(lam_m)},
        "targets": [str(t) for t in ctx.target_labels],
        "transfers": {
            name: {"transfers": transfers.entries[name].transfers,
                   "reason": transfers.entries[name].reason}
            for name in PHYSICAL_NAMES[1:]
        },
        "transferred": list(transfers.transferred()),
        "class": {"label": cls.label, "symmetry_set": list(cls.symmetry_set),
                  "ring": cls.ring, "notes": list(cls.notes)},
        "covering": {
            "label": grp.label, "survivors": list(grp.survivors),
            "matrices": list(grp.matrix_names), "reductions": list(grp.reductions),
            "abstract": grp.abstract,
            "cayley": {"elements": grp.cayley.elements, "table": grp.cayley.table}
            if grp.cayley else None,
            "cover_formulas": list(grp.cover_formulas),
            "cover_names": dict(sorted(grp.cover_names.items())),
            "notes": list(grp.notes),
        },
        "notes": notes,
        "collapsed_grid": grid,
    }
    lines = [f"# Collapse of {ctx.sig} along eps*omega", ""]
    lines += [f"- eps: {ctx.epsilon}",
              f"- omega: {ctx.omega}",
              f"- lambda+: {lam_p}",
              f"- lambda-: {lam_m}",
              f"- targets: {', '.join(str(t) for t in ctx.target_labels)}"]
    for n in notes:
        lines.append(f"- note: {n}")
    lines += ["", "## Surviving transformations", "",
              _md_table(["name", "verdict", "reason"],
                        [[name,
                          "transfers" if transfers.entries[name].transfers else "blocked",
                          transfers.entries[name].reason]
                         for name in PHYSICAL_NAMES[1:]])]
    lines += ["", "## Symmetry class", "",
              f"- class: {cls.label}",
              f"- symmetry set: {{{', '.join(cls.symmetry_set)}}}",
              f"- ring: {cls.ring}",
              f"- transferred (direct route): {{{', '.join(cls.transferred)}}}"]
    lines += [f"- note: {n}" for n in cls.notes]
    lines += ["", "## Collapsed covering", "",
              f"- label: {grp.label}",
              f"- survivors: {{{', '.join(grp.survivors)}}} as matrices "
              f"{{{', '.join(grp.matrix_names)}}}"]
    if grp.reductions:
        lines.append(f"- reductions: {', '.join(grp.reductions)}")
    if grp.abstract:
        lines.append(f"- abstract group: {grp.abstract}")
    if grp.cayley is not None:
        lines += ["", _md_table([" "] + grp.cayley.elements,
                                [[grp.cayley.elements[i]]
                                 + [grp.cayley.elements[v] for v in row]
                                 for i, row in enumerate(grp.cayley.table)])]
    for f_ in grp.cover_formulas:
        lines.append(f"- {f_}")
    for tgt, cover in sorted(grp.cover_names.items()):
        lines.append(f"- concrete cover over {tgt}: {cover}")
    lines += [f"- note: {n}" for n in grp.notes]
    lines += [""] + _grid_lines("Collapsed representations (0 <= p,q <= 7)", grid, 7)
    return 0, _emit(payload, lines, args.format)


def _cmd_verify(args) -> Tuple[int, str]:
    if args.max is not None and args.max < 0:
        raise ValueError(f"--max must be a nonnegative p+q bound, got {args.max}")
    names = list(SUITE_NAMES) if args.suite == "all" else [args.suite]
    results = [run_suite(name, args.max) for name in names]
    ok = all(r.ok for r in results)
    payload = {"schema": SCHEMA, "verb": "verify", "ok": ok,
               "suites": [r.to_dict() for r in results]}
    lines = []
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        extra = f" ({r.detail})" if r.detail else ""
        lines.append(f"{status} {r.name}: {r.checked} checks, "
                     f"{len(r.counterexamples)} counterexamples, "
                     f"{r.elapsed:.2f}s{extra}")
        if not r.ok:
            lines.append(json.dumps({"suite": r.name,
                                     "counterexamples": r.counterexamples},
                                    indent=1, sort_keys=True))
    return (0 if ok else 1), _emit(payload, lines, args.format)


# ---------------------------------------------------------------------------
# argument plumbing


def _mark(text: str) -> Tuple[int, int]:
    try:
        p, q = (int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"--mark wants P,Q, got {text!r}")
    return p, q


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cliffork",
        description="exact workbench for Clifford algebra classification, "
                    "discrete-symmetry matrices, coverings and collapses",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_fmt(p):
        p.add_argument("--format", choices=("markdown", "json"), default="markdown")

    c = sub.add_parser("classify", help="ring / type / group cell of one algebra")
    c.add_argument("--p", type=int)
    c.add_argument("--q", type=int)
    c.add_argument("--complex", type=int, metavar="N")
    c.add_argument("--mark", type=_mark, metavar="P,Q")
    add_fmt(c)

    t = sub.add_parser("table", help="regenerate a classification grid")
    t.add_argument("--kind", choices=TABLE_KINDS, required=True)
    t.add_argument("--max", type=int, default=7)
    add_fmt(t)

    e = sub.add_parser("ext-group", help="extended automorphism group of a spinbasis")
    e.add_argument("--p", type=int)
    e.add_argument("--q", type=int)
    e.add_argument("--basis", metavar="FILE|gamma")
    add_fmt(e)

    v = sub.add_parser("cover", help="reflection-group double covers")
    v.add_argument("--p", type=int)
    v.add_argument("--q", type=int)
    v.add_argument("--complex", type=int, metavar="N")
    v.add_argument("--cpt", action="store_true")
    add_fmt(v)

    qv = sub.add_parser("quotient", help="odd-dimensional collapse report")
    qv.add_argument("--p", type=int)
    qv.add_argument("--q", type=int)
    qv.add_argument("--complex", type=int, metavar="N")
    qv.add_argument("--mark", type=_mark, metavar="P,Q")
    add_fmt(qv)

    w = sub.add_parser("verify", help="run a validation suite")
    w.add_argument("--suite", choices=SUITE_NAMES + ("all",), required=True)
    w.add_argument("--max", type=int, default=None)
    add_fmt(w)
    return parser


_HANDLERS = {
    "classify": _cmd_classify,
    "table": _cmd_table,
    "ext-group": _cmd_ext_group,
    "cover": _cmd_cover,
    "quotient": _cmd_quotient,
    "verify": _cmd_verify,
}


def _needs_pq(args) -> bool:
    return getattr(args, "complex", None) is None and getattr(args, "basis", None) is None


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints usage itself
        return int(exc.code or 0)
    if _needs_pq(args) and hasattr(args, "p") and (args.p is None or args.q is None):
        print(f"error: {args.verb} needs --p and --q (or another source)", file=sys.stderr)
        return 2
    try:
        code, text = _HANDLERS[args.verb](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        # an internal invariant failed on this input: that is a falsified
        # check, so exit 1 with the counterexample rather than a traceback
        check = " ".join(str(exc).split()) or "assertion failed"
        payload = {"schema": SCHEMA, "verb": args.verb, "ok": False,
                   "counterexamples": [{"check": check, "args": vars(args)}]}
        code, text = 1, json.dumps(payload, indent=1, sort_keys=True)
        print(f"error: {args.verb}: internal check failed: {check}", file=sys.stderr)
    try:
        print(text)
        sys.stdout.flush()
    except OSError as exc:  # a full disk, a closed pipe
        # point a real stdout at os.devnull, so that the interpreter's flush
        # at exit does not fail a second time
        with contextlib.suppress(AttributeError, ValueError, OSError):
            fd, devnull = sys.stdout.fileno(), os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        print(f"error: cannot write output: {exc.strerror or type(exc).__name__}",
              file=sys.stderr)
        return 2
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
