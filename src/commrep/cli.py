"""Command line front end.

Commands read JSON documents from files or, when an input flag is omitted
or given as ``-``, from standard input, so commands compose through pipes:

    commrep example div52 | commrep canonical

Exit codes: 0 success, 1 domain error, 2 I/O or parse error, and 3 for a
boolean command whose answer is false.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import io as cio
from .antitone import check_complete
from .commutator import (
    example,
    largest_from_equalities,
    reduced_equalities,
    to_equalities,
    to_extended_equalities,
)
from .hc import admissibility_report, is_admissible
from .learn import Oracle, learn
from .vectors import INF

__all__ = ["main", "main_entry"]


def _read_doc(path: str | None):
    if path is None or path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise cio.ParseError(f"invalid JSON: {exc}") from exc


def _load_lattice(args):
    if getattr(args, "lattice", None):
        return cio.lattice_from_doc(_read_doc(args.lattice))
    return None


def _load_rep(args):
    return cio.rep_from_doc(_read_doc(getattr(args, "rep", None)), _load_lattice(args))


def _parse_vector(text: str):
    parts = [p.strip() for p in text.split(",")]
    out = []
    for p in parts:
        if p == "inf":
            out.append(INF)
        else:
            try:
                out.append(int(p))
            except ValueError:
                raise ValueError(f"bad vector coordinate {p!r}") from None
    return tuple(out)


def _emit(args, doc, table_lines=None):
    if getattr(args, "format", "json") == "table" and table_lines is not None:
        print("\n".join(table_lines))
    else:
        print(json.dumps(doc, indent=2))


def _rep_table(rep):
    lat = rep.lattice
    return [f"{list(v)} -> {lat.name(e)}" for v, e in rep.points]


# -- command handlers --------------------------------------------------------


def _cmd_eval(args):
    # eval and eval-ext differ only in whether INF coordinates are accepted
    rep = _load_rep(args)
    vec = _parse_vector(args.vector)
    val = rep.eval_ext(vec) if args.command == "eval-ext" else rep.eval(vec)
    name = rep.lattice.name(val)
    _emit(args, {"vec": cio.vec_to_json(vec), "value": name}, [f"F{tuple(vec)} = {name}"])
    return 0


def _cmd_canonical(args):
    rep = _load_rep(args).canonical()
    _emit(args, cio.rep_to_doc(rep), _rep_table(rep))
    return 0


def _cmd_complete(args):
    ext = _load_rep(args).complete()
    _emit(args, cio.extrep_to_doc(ext), _rep_table(ext))
    return 0


def _cmd_check_complete(args):
    rep = _load_rep(args)
    ext = cio.extrep_from_doc(_read_doc(args.extrep), rep.lattice)
    ok = check_complete(rep, ext)
    _emit(args, {"complete": ok}, [f"complete: {ok}"])
    return 0 if ok else 3


def _cmd_sublevel(args):
    rep = _load_rep(args)
    level = rep.sublevel(args.alpha)
    doc = cio.upset_to_doc(level)
    doc["alpha"] = args.alpha
    _emit(args, doc, [f"Min: {[list(g) for g in level.gens]}"])
    return 0


def _cmd_props(args):
    rep = _load_rep(args)
    report = admissibility_report(rep)
    lines = [f"{k}: {v.get('holds')}" for k, v in report.items() if isinstance(v, dict)]
    lines.append(f"admissible: {report['admissible']}")
    _emit(args, report, lines)
    return 0


def _cmd_admissible(args):
    rep = _load_rep(args)
    ok = is_admissible(rep)
    _emit(args, {"admissible": ok}, [f"admissible: {ok}"])
    return 0 if ok else 3


def _cmd_learn(args):
    hidden = cio.rep_from_doc(_read_doc(args.oracle), _load_lattice(args))
    counter = {"queries": 0}

    def query(vec):
        counter["queries"] += 1
        return hidden.eval_ext(vec)

    oracle = Oracle(hidden.dim, hidden.lattice, query)
    learned = learn(oracle, max_rounds=args.max_rounds)
    doc = cio.rep_to_doc(learned)
    doc["queries"] = counter["queries"]
    _emit(args, doc, _rep_table(learned) + [f"queries: {counter['queries']}"])
    return 0


def _cmd_to_equalities(args):
    rep = _load_rep(args)
    eqs = reduced_equalities(rep) if args.reduced else to_equalities(rep)
    _emit(
        args,
        cio.equalities_to_doc(rep.lattice, eqs),
        [e.render(rep.lattice) for e in eqs],
    )
    return 0


def _cmd_to_extended_equalities(args):
    rep = _load_rep(args)
    eqs = to_extended_equalities(rep)
    _emit(
        args,
        cio.equalities_to_doc(rep.lattice, eqs),
        [e.render(rep.lattice) for e in eqs],
    )
    return 0


def _cmd_from_equalities(args):
    lat, eqs = cio.equalities_from_doc(
        _read_doc(getattr(args, "equalities", None)), _load_lattice(args)
    )
    rep, report = largest_from_equalities(lat, eqs)
    doc = cio.rep_to_doc(rep)
    doc["attained"] = [
        {"equality": e.render(lat), "attained": ok} for e, ok in report
    ]
    lines = _rep_table(rep) + [
        f"{e.render(lat)}  attained: {ok}" for e, ok in report
    ]
    _emit(args, doc, lines)
    return 0


def _cmd_example(args):
    _, rep = example(args.name)
    _emit(args, cio.rep_to_doc(rep), _rep_table(rep))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="commrep",
        description="compute with finitely represented antitone maps "
        "and the operation sequences they encode",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, rep=True):
        if rep:
            p.add_argument("--rep", help="representation JSON (default: stdin)")
        p.add_argument("--lattice", help="lattice JSON, for documents without one")
        p.add_argument(
            "--format", choices=("json", "table"), default="json", help="output style"
        )

    p = sub.add_parser("eval", help="evaluate at a finite vector")
    common(p)
    p.add_argument("vector", help="comma separated, e.g. 30,20")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("eval-ext", help="evaluate the continuation, inf allowed")
    common(p)
    p.add_argument("vector", help="comma separated, e.g. 29,inf")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("canonical", help="canonical representation")
    common(p)
    p.set_defaults(func=_cmd_canonical)

    p = sub.add_parser("complete", help="complete representation")
    common(p)
    p.set_defaults(func=_cmd_complete)

    p = sub.add_parser("check-complete", help="does a point set pin the function?")
    common(p)
    p.add_argument("--extrep", required=True, help="point set JSON ('-' for stdin)")
    p.set_defaults(func=_cmd_check_complete)

    p = sub.add_parser("sublevel", help="minimal vectors with value below alpha")
    common(p)
    p.add_argument("--alpha", required=True, help="lattice element name")
    p.set_defaults(func=_cmd_sublevel)

    p = sub.add_parser("props", help="property report for an encoded sequence")
    common(p)
    p.set_defaults(func=_cmd_props)

    p = sub.add_parser("admissible", help="hc1, hc2, hc7 and hc8 together")
    common(p)
    p.set_defaults(func=_cmd_admissible)

    p = sub.add_parser("learn", help="recover a hidden representation by queries")
    common(p, rep=False)
    p.add_argument("--oracle", required=True, help="hidden representation JSON")
    p.add_argument("--max-rounds", type=int, default=10_000)
    p.set_defaults(func=_cmd_learn)

    p = sub.add_parser("to-equalities", help="canonical equality set")
    common(p)
    p.add_argument(
        "--reduced",
        action="store_true",
        help="drop equalities entailed by boundedness and monotony",
    )
    p.set_defaults(func=_cmd_to_equalities)

    p = sub.add_parser("to-extended-equalities", help="uniquely determining set")
    common(p)
    p.set_defaults(func=_cmd_to_extended_equalities)

    p = sub.add_parser("from-equalities", help="largest sequence below equalities")
    common(p, rep=False)
    p.add_argument("--equalities", help="equality set JSON (default: stdin)")
    p.set_defaults(func=_cmd_from_equalities)

    p = sub.add_parser("example", help="built-in example representation")
    p.add_argument("name", help="div52, B or B7")
    p.add_argument(
        "--format", choices=("json", "table"), default="json", help="output style"
    )
    p.set_defaults(func=_cmd_example)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (cio.ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main_entry() -> None:
    sys.exit(main())
