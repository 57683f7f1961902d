"""Command line interface.

Every subcommand prints a short plain-text answer by default and JSON
with --format json (the table speaks TSV instead of plain text).  Exit
status: 0 on success, 1 when an argument is outside an operation's
domain, 2 for malformed usage, and 141 (as for a process that SIGPIPE
ends) when standard output is closed before the answer is written, as
``| head -n 1`` may do; that case prints no traceback.
"""
from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from .disks import forcing_oracle, intersection_counts
from .entropy import entropy_certificate, root_bracket
from .families import lone_catalog, pa_test, r_sequence, star_decoration
from .height import cq_word, height, scope
from .invariants import FORCED, NOT_FORCED, STAR, _forces, _parts, r_star
from .orbits import classify
from .survey import (
    _DEFAULT_DECORATIONS,
    _WILSON_Z,
    decinv_table,
    universality_sample,
    universality_scan,
    wilson_interval,
)
from .words import DomainError, Seq


def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _word_arg(text: str) -> str:
    if text == ".":
        return ""  # spell the empty decoration as a dot
    if text.strip("01"):
        raise argparse.ArgumentTypeError(f"not a binary word: {text!r}")
    return text


def _code_arg(text: str) -> str:
    if not text or text.strip("01"):
        raise argparse.ArgumentTypeError(f"not a binary code: {text!r}")
    return text


def _seq_arg(text: str) -> Seq:
    try:
        return Seq.parse(text)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _show_word(w: str) -> str:
    return w if w else "(empty)"


def _json(payload) -> str:
    import json  # imported on use, so that a command printing no JSON never loads it

    return json.dumps(payload)


def _emit(args, text_lines, payload) -> int:
    if args.format == "json":
        print(_json(payload))
    else:
        for line in text_lines:
            print(line)
    return 0


def _cmd_height(args) -> int:
    q = height(args.seq)
    return _emit(args, [str(q)], {"seq": str(args.seq), "height": str(q)})


def _cmd_cq(args) -> int:
    word = cq_word(args.q)
    return _emit(args, [word], {"q": str(args.q), "word": word})


def _cmd_scope(args) -> int:
    s = scope(args.w)
    return _emit(args, [str(s)], {"w": _show_word(args.w), "scope": str(s)})


def _cmd_classify(args) -> int:
    info = classify(args.code)
    payload = {
        "code": info.code,
        "period": info.period,
        "height": str(info.height),
        "kind": info.kind,
    }
    if info.decoration is not None:
        payload["decoration"] = info.decoration
    return _emit(args, [_json(payload)], payload)


def _cmd_rinv(args) -> int:
    m, n_, l_, r = _parts(args.w, args.code)
    return _emit(
        args,
        [f"mu={m} nu={n_} lambda={l_} r={r}"],
        {"mu": str(m), "nu": str(n_), "lambda": str(l_), "r": str(r)},
    )


def _cmd_rstar(args) -> int:
    r = r_star(args.code)
    return _emit(args, [f"r*={r}"], {"r_star": str(r)})


def _cmd_force(args) -> int:
    r, verdict = _forces(args.code, args.w, args.q)
    return _emit(
        args,
        [f"r={r} {verdict}"],
        {"r": str(r), "q": str(args.q), "verdict": verdict},
    )


def _cmd_disks(args) -> int:
    a, b, c, d = intersection_counts(args.code, args.w, args.q)
    verdict = FORCED if forcing_oracle(args.code, args.w, args.q) else NOT_FORCED
    return _emit(
        args,
        [f"A={a} B={b} C={c} D={d}", verdict],
        {"A": a, "B": b, "C": c, "D": d, "verdict": verdict},
    )


def _cmd_star(args) -> int:
    w = star_decoration(args.q)
    return _emit(
        args, [_show_word(w)], {"q": str(args.q), "decoration": w}
    )


def _cmd_family(args) -> int:
    if args.mode == "r-seq":
        rs = r_sequence(args.code, args.imax)
        lines = [f"{i}\t{r}" for i, r in enumerate(rs)]
        return _emit(
            args, lines, {"code": args.code, "r_sequence": [str(r) for r in rs]}
        )
    verdict = pa_test(args.code)
    return _emit(args, [verdict], {"code": args.code, "verdict": verdict})


def _cmd_entropy(args) -> int:
    cert = entropy_certificate(args.code, args.imax)
    if cert is None:
        poly, root, log, bracket = [], 1.0, 0.0, None
    else:
        poly, root, log = cert
        bracket = [str(end) for end in root_bracket(poly)]
    return _emit(
        args,
        [f"poly={poly} root={root:.9f} log={log:.9f}"],
        {"code": args.code, "poly": poly, "root": root, "log": log, "bracket": bracket},
    )


def _decorations_arg(text: str) -> tuple[str, ...]:
    return tuple(
        STAR if piece == STAR else _word_arg(piece) for piece in text.split(",")
    )


def _cmd_table(args) -> int:
    table = decinv_table(args.period, args.decorations)
    headers = [d or "." for d in table.decorations]
    scopes = [str(v) for v in table.scope_row]
    rows = [
        {
            "label": row.label,
            "members": list(row.members),
            "values": [str(v) for v in row.values],
        }
        for row in table.rows
    ]
    lines = ["\t".join(["orbit"] + headers), "\t".join(["scope"] + scopes)]
    lines += ["\t".join([row["label"]] + row["values"]) for row in rows]
    payload = {
        "period": table.period,
        "decorations": headers,
        "scope": scopes,
        "rows": rows,
    }
    return _emit(args, lines, payload)


def _cmd_scan(args) -> int:
    if args.sample is not None:
        p = universality_sample(args.w, args.q, args.n, args.sample, args.seed)
    else:
        p = universality_scan(args.w, args.q, args.n)
    lines = [f"{p} ~ {float(p):.4f}"]
    payload = {
        "w": _show_word(args.w),
        "q": str(args.q),
        "n": args.n,
        "p": str(p),
        "approx": float(p),
    }
    if args.sample is not None:
        lo, hi = wilson_interval(p, args.sample)
        lines.append(f"z={_WILSON_Z} Wilson interval [{lo:.4f}, {hi:.4f}]")
        payload["interval"] = [lo, hi]
    return _emit(args, lines, payload)


def _cmd_lone(args) -> int:
    words = lone_catalog(args.max_len)
    return _emit(
        args, [_show_word(w) for w in words], {"decorations": words}
    )


_POSITIONALS = dict(seq=_seq_arg, q=_fraction_arg, w=_word_arg, code=_code_arg, n=int)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="horseshoe",
        description="Exact heights, classification, and forcing of horseshoe orbits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_, *positionals):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=func)
        for arg in positionals:
            p.add_argument(arg, type=_POSITIONALS[arg])
        return p

    add("height", _cmd_height, "height of a sequence, e.g. 10111100(11)", "seq")
    add("cq", _cmd_cq, "the word c_q for a rational 0 < q <= 1/2", "q")
    add("scope", _cmd_scope, "scope of a decoration word", "w")
    add("classify", _cmd_classify, "classify a periodic orbit code (JSON)", "code")
    add("rinv", _cmd_rinv, "decoration invariants mu, nu, lambda, r", "code", "w")
    add("rstar", _cmd_rstar, "the star invariant of a code", "code")
    add(
        "force", _cmd_force, "does the orbit force the w family at q?", "code", "w", "q"
    )
    add(
        "disks", _cmd_disks, "disk intersection counts and oracle verdict",
        "code", "w", "q",
    )
    add("star", _cmd_star, "the star decoration w_q", "q")

    p = add("family", _cmd_family, "odd-ones family: invariant sequence or pA test")
    p.add_argument("mode", choices=["r-seq", "pa"])
    p.add_argument("code", type=_POSITIONALS["code"])
    p.add_argument("--imax", type=int, default=3)

    p = add("entropy", _cmd_entropy, "entropy lower bound certificate", "code")
    p.add_argument("--imax", type=int, default=3)

    p = add("table", _cmd_table, "decoration invariant table for one period")
    p.add_argument("--period", type=int, required=True)
    p.add_argument(
        "--decorations",
        type=_decorations_arg,
        default=_DEFAULT_DECORATIONS,
    )
    p.add_argument("--format", choices=["tsv", "json"], default="tsv")

    p = add(
        "scan", _cmd_scan, "fraction of period-n orbits with r^w below q", "w", "q", "n"
    )
    p.add_argument("--sample", type=int)
    p.add_argument("--seed", type=int, default=0)

    p = add("lone", _cmd_lone, "catalog of lone decorations")
    p.add_argument("--max-len", type=int, default=5)

    for name, p in sub.choices.items():
        if name != "table":
            p.add_argument("--format", choices=["text", "json"], default="text")
    return parser


_CLOSED_PIPE = 141


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # so that a closed pipe raises here, not at exit
        return status
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader has gone; what is still buffered goes to devnull, so
        # that the interpreter's own flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _CLOSED_PIPE


if __name__ == "__main__":
    sys.exit(main())
