"""Command-line surface: deterministic reports over the library operations.

Exit codes: 0 success, 1 domain error, 2 usage error.  One error boundary,
the command group's ``invoke``, turns every domain error (``JacstabError``)
and every unreadable input (``OSError``, ``ValueError`` such as malformed
JSON, ``KeyError``) into ``error: ...`` on stderr and exit 1; an unreadable
input file reads ``error: cannot read WHAT PATH: ...`` and a failed
``--out`` write ``error: cannot write PATH: ...``.
Oversized input fails fast: ``iter_vines`` refuses (g, n) above
``graph.MAX_VINE_CANDIDATES`` and ``walls`` a window of more than
``atlas.MAX_WALLS`` walls.  Rationals are accepted only as "p/q" strings
(no decimals).  Set JACSTAB_LOG to a level name (DEBUG, INFO, ...) for
verbosity.
"""

from __future__ import annotations

import json
import logging
import os
import re
import sys
from fractions import Fraction

import click

from . import abel_jacobi, stability, verify
from . import graph as graph_mod
from .atlas import atlas as build_atlas, atlas_to_csv, atlas_to_json, walls
from .errors import JacstabError, PreconditionError


def _fail(message: str) -> None:
    click.echo("error: %s" % message, err=True)
    sys.exit(1)


class _Group(click.Group):
    """Runs every command inside the CLI's one error boundary."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (OSError, KeyError, ValueError, JacstabError) as exc:
            _fail(str(exc))


def _g_n(fn):
    """``--g`` and ``--n``, both required."""
    fn = click.option("--n", "n", type=int, required=True)(fn)
    return click.option("--g", "g", type=int, required=True)(fn)


def _format_out(*choices):
    """``--format`` over ``choices`` (the first is the default) and
    ``--out``."""
    def apply(fn):
        fn = click.option("--out", type=click.Path(), default=None)(fn)
        return click.option("--format", "fmt", type=click.Choice(choices),
                            default=choices[0])(fn)
    return apply


def _parse_window(text: str) -> tuple[Fraction, Fraction]:
    parts = text.split("..")
    if len(parts) != 2:
        raise click.UsageError("window must be lo..hi, e.g. -3..3")
    try:
        return stability.exact_rational(parts[0]), stability.exact_rational(parts[1])
    except PreconditionError as exc:
        raise click.UsageError(str(exc))


def _load(path: str, what: str, parse):
    """``parse`` of the JSON document in the file at ``path``, or the
    error ``cannot read WHAT PATH: ...``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(json.load(fh))
    except (OSError, ValueError, JacstabError) as exc:
        _fail("cannot read %s %s: %s" % (what, path, exc))


def _emit(text: str, out: str | None) -> None:
    if not out:
        # every text here ends with its own newline, and "" writes nothing
        click.echo(text, nl=False)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        _fail("cannot write %s: %s" % (out, exc))


def _report(fmt: str, out: str | None, payload, lines) -> None:
    """``payload()`` as JSON, or each text line followed by a newline
    (nothing at all for no lines); only the chosen format is built."""
    _emit(json.dumps(payload(), indent=2) + "\n" if fmt == "json"
          else "".join(line + "\n" for line in lines), out)


@click.group(cls=_Group)
def main():
    """Stability conditions for compactified Jacobians on dual graphs."""
    level = os.environ.get("JACSTAB_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


@main.command()
@_g_n
@click.option("--min-edges", type=int, default=1, show_default=True)
@_format_out("text", "json")
def vines(g, n, min_edges, fmt, out):
    """List canonical vine curves for (g, n)."""
    found = graph_mod.enumerate_vines(g, n, min_edges)
    _report(fmt, out, lambda: [graph_mod.vine_to_dict(v) for v in found],
            map(str, found))


@main.command()
@click.option("--graph", "graph_path", type=click.Path(exists=True),
              required=True)
def check(graph_path):
    """Validate a graph JSON file; print diagnostics."""
    g = _load(graph_path, "graph", graph_mod.graph_from_dict)
    diags = graph_mod.validate(g)
    if diags:
        for d in diags:
            click.echo(d)
        sys.exit(1)
    click.echo("ok: %r" % g)


@main.command()
@click.option("--graph", "graph_path", type=click.Path(exists=True),
              required=True)
@click.option("--phi", "phi_path", type=click.Path(exists=True), required=True)
@click.option("--degree", type=int, default=0, show_default=True)
@click.option("--include-nonfree", is_flag=True, default=False)
@_format_out("text", "json")
def stable(graph_path, phi_path, degree, include_nonfree, fmt, out):
    """List all phi-stable sheaf data of the given total degree."""
    g = _load(graph_path, "graph", graph_mod.graph_from_dict)
    diags = graph_mod.validate(g)
    if diags:
        _fail("invalid graph %s: %s" % (graph_path, "; ".join(diags)))
    phi = _load(phi_path, "phi", lambda data: stability.phi_from_dict(g, data))
    data = stability.stable_sheaf_data(g, phi, degree, include_nonfree)
    _report(fmt, out, lambda: [stability.datum_to_dict(F) for F in data],
            map(repr, data))


@main.command(name="walls")
@_g_n
@click.option("--window", required=True)
@_format_out("text", "json")
def walls_cmd(g, n, window, fmt, out):
    """Wall positions for every vine of (g, n) inside the window."""
    lo_hi = _parse_window(window)
    sets = [(v, walls(v, lo_hi)) for v in graph_mod.iter_vines(g, n, 1)]
    _report(fmt, out,
            lambda: [{"vine": graph_mod.vine_to_dict(v),
                      "walls": [str(x) for x in w.walls]} for v, w in sets],
            ("%s: %s" % (v, " ".join(str(x) for x in w.walls))
             for v, w in sets))


@main.command(name="atlas")
@_g_n
@click.option("--window", required=True)
@click.option("--include-nonfree", is_flag=True, default=False)
@_format_out("json", "csv")
@click.option("--jobs", type=int, default=1,
              help="Accepted for compatibility; the atlas runs serially.")
def atlas_cmd(g, n, window, include_nonfree, fmt, out, jobs):
    """Wall-and-chamber atlas over all vines of (g, n); deterministic."""
    records = build_atlas(g, n, _parse_window(window), include_nonfree)
    _emit(atlas_to_json(records) if fmt == "json" else atlas_to_csv(records),
          out)


def _verdict_lines(result: abel_jacobi.ExtendsResult) -> list[str]:
    """The "extends: yes/no" line, then the witness line of a "no"."""
    lines = ["extends: %s" % ("yes" if result.extends else "no")]
    if result.witness is not None:
        lines.append("witness: %s with bidegree (%d,%d)"
                     % (result.witness, result.witness_bidegree,
                        -result.witness_bidegree))
    return lines


def _parse_twist(g, n, k, a_text):
    # every item is an optional sign and ASCII digits, nothing else
    if not re.fullmatch(r"[+-]?[0-9]+(,[+-]?[0-9]+)*", a_text):
        raise click.UsageError("expected comma-separated integers, got %r"
                               % a_text)
    return abel_jacobi.AJDatum(k, tuple(map(int, a_text.split(","))), g, n)


@main.command(name="extends")
@_g_n
@click.option("--k", "k", type=int, default=0, show_default=True)
@click.option("--a", "a_text", required=True,
              help="comma-separated integers a_1,...,a_n")
@click.option("--phi", "phi_path", type=click.Path(exists=True), default=None,
              help="vine phi table JSON; default: constructed from the twist")
@click.option("--seed", type=int, default=0, show_default=True)
@_format_out("text", "json")
def extends_cmd(g, n, k, a_text, phi_path, seed, fmt, out):
    """Check the Abel-Jacobi extension criterion against a phi table."""
    aj = _parse_twist(g, n, k, a_text)
    if phi_path:
        table = _load(phi_path, "phi table",
                      abel_jacobi.VinePhiTable.from_dict)
    else:
        table = abel_jacobi.classify_extension(g, n, aj, seed).phi_table
        if table is None:
            _fail("no --phi table given and the twist is not of the "
                  "form +-(e_i - e_j); provide a table explicitly")
    result = abel_jacobi.sigma_extends(g, n, aj, table)
    _report(fmt, out, result.to_report, _verdict_lines(result))


@main.command()
@_g_n
@click.option("--k", "k", type=int, default=0, show_default=True)
@click.option("--a", "a_text", required=True,
              help="comma-separated integers a_1,...,a_n")
@click.option("--seed", type=int, default=0, show_default=True)
@_format_out("text", "json")
def classify(g, n, k, a_text, seed, fmt, out):
    """Classify whether the Abel-Jacobi section extends for this twist."""
    aj = _parse_twist(g, n, k, a_text)
    result = abel_jacobi.classify_extension(g, n, aj, seed)
    lines = _verdict_lines(result)
    if result.extends:
        lines.append("phi table (%s):" % abel_jacobi.SCOPE_NOTE)
        for row in result.phi_table.to_dict()["entries"]:
            lines.append("  vine(g1=%(g1)d, g2=%(g2)d, e=%(e)d, S=%(S)s): "
                         "phi=%(phi)s" % row)
    else:
        lines.append("certified over %d chambers of the small-perturbation "
                     "interval" % len(result.certificate.chambers))
    _report(fmt, out, result.to_report, lines)


@main.command(name="verify")
@click.option("--suite", type=click.Choice(verify.SUITES), required=True)
@click.option("--max-vertices", type=int, default=4, show_default=True)
@click.option("--max-edges", type=int, default=7, show_default=True)
@click.option("--trials", type=int, default=50, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--jobs", type=int, default=1, show_default=True)
def verify_cmd(suite, max_vertices, max_edges, trials, seed, jobs):
    """Run a named property suite; print pass/fail and any counterexample."""
    result = verify.run_suite(suite, max_vertices=max_vertices,
                              max_edges=max_edges, trials=trials,
                              seed=seed, jobs=jobs)
    click.echo(result.summary())
    if not result.passed:
        sys.exit(1)


if __name__ == "__main__":
    main()
