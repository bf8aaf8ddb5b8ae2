"""Random and malformed input files and argv integers through the
in-process CLI.

Whatever the files and the integer options hold, ``cli.main`` must return
one of the documented exit codes (0-4 for file commands, 0, 1 or 5 for
``search-shift2``) and let no other exception escape.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from matrex import cli

#: integer fields stay small, so every generated instance solves quickly
SMALL = st.integers(-3, 40)
SIZES = st.integers(-3, 8)

json_leaf = st.one_of(st.none(), st.booleans(), SMALL, st.floats(allow_nan=False),
                      st.text(max_size=4))
junk = st.recursive(json_leaf, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)


@st.composite
def element_arrays(draw, n=None):
    """Usually an ascending id array inside {0..n-1}; sometimes any small ints."""
    if n is not None and n > 0 and draw(st.booleans()):
        return sorted(draw(st.sets(st.integers(0, n - 1), max_size=n)))
    return draw(st.lists(SMALL, max_size=6))


@st.composite
def matroids(draw, n=None):
    """A matroid description on n elements (or a random size), often valid."""
    n = draw(SIZES) if n is None else n
    kind = draw(st.sampled_from(("uniform", "graphic", "linear", "bases")))
    if kind == "uniform":
        return {"type": kind, "n": n, "rank": draw(st.one_of(st.integers(0, max(n, 0)), SMALL))}
    count = max(n, 0)
    if kind == "graphic":
        vertices = draw(st.integers(-1, 6))
        vertex = st.integers(-1, max(vertices, 0))
        edges = draw(st.lists(st.lists(vertex, min_size=2, max_size=2),
                              min_size=count, max_size=count))
        return {"type": kind, "vertices": vertices, "edges": edges}
    if kind == "linear":
        rows = draw(st.integers(-1, 4))
        entry = st.lists(SMALL, min_size=max(rows, 0), max_size=max(rows, 0))
        columns = draw(st.lists(entry, min_size=count, max_size=count))
        prime = draw(st.one_of(st.sampled_from((2, 3, 5)), SMALL))
        return {"type": kind, "prime": prime, "rows": rows, "columns": columns}
    bases = draw(st.lists(element_arrays(n), min_size=0, max_size=6))
    return {"type": kind, "n": n, "bases": bases}


@st.composite
def problems(draw):
    n = draw(st.integers(0, 8))
    arms = draw(st.lists(st.fixed_dictionaries(
        {"matroid": matroids(n), "allowed": element_arrays(n)}), min_size=1, max_size=3))
    return {"universe": n, "arms": arms}


@st.composite
def exchange_inputs(draw):
    """A matroid and a bases file; for a uniform matroid the sets are often bases."""
    n = draw(st.integers(0, 8))
    matroid = draw(matroids(n))
    size = draw(st.integers(0, n))
    if matroid["type"] == "uniform" and draw(st.booleans()):
        matroid["rank"] = size
    basis = st.sets(st.integers(0, max(n - 1, 0)), min_size=size, max_size=size).map(sorted)
    bases = draw(st.lists(basis, min_size=1, max_size=4))
    if draw(st.booleans()):
        bases.insert(draw(st.integers(0, len(bases))), draw(element_arrays(n)))
    seed = st.sets(st.sampled_from(bases[0])).map(sorted) if bases[0] else st.just([])
    return matroid, {"bases": bases, "a1": draw(st.one_of(seed, element_arrays(n)))}


@st.composite
def mutated(draw, obj):
    """``obj`` as is, with one field dropped, added or replaced, or as junk."""
    how = draw(st.sampled_from(("keep", "keep", "drop", "add", "replace", "junk")))
    if how == "junk":
        return draw(junk)
    if how == "add":
        obj["extra"] = draw(junk)
    elif how in ("drop", "replace") and obj:
        key = draw(st.sampled_from(sorted(obj)))
        if how == "drop":
            del obj[key]
        else:
            obj[key] = draw(junk)
    return obj


@st.composite
def file_text(draw, obj):
    """The JSON text of a mutated ``obj``, possibly cut short or nested deep."""
    text = json.dumps(draw(mutated(obj)))
    how = draw(st.sampled_from(("whole", "whole", "whole", "truncate", "nest")))
    if how == "truncate":
        return text[:draw(st.integers(0, len(text)))]
    if how == "nest":
        depth = draw(st.sampled_from((2, 50, 100_000)))
        return "[" * depth + "]" * draw(st.sampled_from((0, depth)))
    return text


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run_main(workdir, argv, texts, codes=frozenset({0, 1, 2, 3, 4})):
    paths = []
    for i, text in enumerate(texts):
        path = workdir / f"in{i}.json"
        path.write_text(text)
        paths.append(str(path))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([argv[0], *paths, *argv[1:]])
    assert code in codes, (code, argv, texts, out.getvalue(), err.getvalue())
    assert "Traceback" not in err.getvalue()


fuzz = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


@fuzz
@given(st.sampled_from(("check", "enumerate-bases")), matroids().flatmap(file_text))
def test_matroid_files(workdir, command, text):
    run_main(workdir, [command], [text])


@fuzz
@given(exchange_inputs(), st.sampled_from((None, 0, 1)), st.booleans(), st.data())
def test_exchange_files(workdir, inputs, broken, verify, data):
    texts = [data.draw(file_text(obj)) if i == broken else json.dumps(obj)
             for i, obj in enumerate(inputs)]
    run_main(workdir, ["cyclic-exchange"] + ["--verify"] * verify, texts)


@fuzz
@given(problems().flatmap(file_text))
def test_problem_files(workdir, text):
    run_main(workdir, ["partition"], [text])


# --- argv integers -------------------------------------------------------------

#: small or negative values, plus ``--k`` values far past the catalog's size
#: with a budget small enough to keep every search fast
SEARCH_K = st.one_of(st.integers(-3, 40), st.sampled_from((900, 3000)))


@st.composite
def search_argv(draw):
    k = draw(SEARCH_K)
    budget = draw(st.integers(-3, 40 if k <= 40 else 2))
    return ["search-shift2", "--k", str(k), "--budget", str(budget)]


@fuzz
@given(search_argv())
def test_search_integers(workdir, argv):
    # A negative budget is refused (exit 2), unless --k is refused first.
    run_main(workdir, argv, [], codes={0, 1, 5} if int(argv[-1]) >= 0 else {1, 2})


@fuzz
@given(st.sampled_from(("check", "enumerate-bases")), matroids().flatmap(file_text),
       st.integers(-3, 40))
def test_cap_integers(workdir, command, text, cap):
    run_main(workdir, [command, "--cap", str(cap)], [text])
