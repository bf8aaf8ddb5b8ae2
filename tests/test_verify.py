"""Brute-force oracle, instance generator, and the shift-by-two search."""

import contextlib
import fractions
import functools
import hashlib
import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matrex import cli, core, verify
from matrex import (
    BasisMatroid,
    ExchangeInstance,
    ExhaustionReport,
    FormatError,
    GenerationError,
    GraphicMatroid,
    InstanceGenSpec,
    InternalVerificationError,
    LinearMatroid,
    Shift2Witness,
    SizeLimitError,
    UniformMatroid,
    ValidationError,
    brute_force_cyclic_exchange,
    cyclic_exchange,
    random_instance,
    search_shift2_counterexample,
    verify_witness,
)
from matrex.io import matroid_to_json
from matrex.verify import exhaustion_to_json, witness_from_json, witness_to_json

from helpers import K4_EDGES, flat_shift_tuples, mask_to_set

#: sha256 of ``matrex search-shift2`` (exit code and JSON) for k in {3, 4},
#: budgets {0, 1, 50, 100, 1000} and seeds {0, 1, 2}, one entry per run
GOLDEN_SEARCH_DIGEST = "0f9bb89b457c5a3bc0bb6977b6556e54b0cd2d5d9a6d67b589aeb00f9220df6d"

#: the same sweep with the catalog cut to U(3,3), which holds no witness, so
#: runs cross from the catalog into the seeded random linear phase
GOLDEN_SEARCH_DIGEST_RANDOM = "e5b9a6d51f28cb246d4cc96d5e600d8e41da73dc1e535d88162050eb261f32b9"


def search_sweep_digest() -> str:
    digest = hashlib.sha256()
    for k in (3, 4):
        for budget in (0, 1, 50, 100, 1000):
            for seed in (0, 1, 2):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main(["search-shift2", "--k", str(k), "--budget", str(budget),
                                     "--seed", str(seed)])
                digest.update(f"{code} {out.getvalue()}".encode())
    return digest.hexdigest()


class TestBruteForce:
    def test_uniform_triple_has_four_solutions(self):
        m = UniformMatroid(6, 2)
        inst = ExchangeInstance(
            m, (frozenset({0, 1}), frozenset({2, 3}), frozenset({4, 5})), frozenset({0})
        )
        solutions = brute_force_cyclic_exchange(inst)
        assert len(solutions) == 4
        assert set(solutions) == {
            (frozenset({a}), frozenset({b})) for a in (2, 3) for b in (4, 5)
        }

    def test_k4_unique_solution(self):
        k4 = GraphicMatroid(4, K4_EDGES)
        inst = ExchangeInstance(k4, (frozenset({0, 1, 2}), frozenset({3, 4, 5})), frozenset({0}))
        assert brute_force_cyclic_exchange(inst) == [(frozenset({5}),)]

    def test_empty_seed_single_solution(self):
        k4 = GraphicMatroid(4, K4_EDGES)
        inst = ExchangeInstance(k4, (frozenset({0, 1, 2}), frozenset({3, 4, 5})), frozenset())
        assert brute_force_cyclic_exchange(inst) == [(frozenset(),)]

    def test_gate(self):
        m = UniformMatroid(18, 6)
        bases = tuple(frozenset(range(i, i + 6)) for i in (0, 6, 12))
        inst = ExchangeInstance(m, bases, frozenset({0}))
        with pytest.raises(SizeLimitError):
            brute_force_cyclic_exchange(inst)

    def test_k1_rejected(self):
        m = UniformMatroid(2, 1)
        inst = ExchangeInstance(m, (frozenset({0}),), frozenset())
        with pytest.raises(ValidationError):
            brute_force_cyclic_exchange(inst)


def walk_sets(is_basis, bases, seed, offsets):
    """``verify._shift_tuples`` on element sets: the sets become masks over
    the union of ``bases`` (bit i for its i-th smallest id), and each tested
    mask and each answer is mapped back to a set."""
    elements = sorted(set().union(*bases))
    weight = {e: 1 << i for i, e in enumerate(elements)}
    masks = [core._mask(b, weight) for b in bases]
    pools = [verify._subsets(b, len(seed)) for b in masks]
    plan = verify._check_plan(len(bases), offsets)
    walk = verify._shift_tuples(lambda s: is_basis(core._elements(s, elements)), plan, masks,
                                pools, core._mask(seed, weight))
    return [tuple(core._elements(a, elements) for a in parts) for parts in walk]


def search_masks(matroid):
    """The matroid's bases as the search lists them: bit e stands for element e."""
    return [sum(1 << e for e in b) for b in matroid.enumerate_bases()]


@functools.cache
def search_catalog():
    return tuple(verify._search_catalog())


def random_rank3_linear(seed):
    """A rank-3 linear matroid over GF(2), GF(3) or GF(5) drawn from ``seed``,
    like the search's random phase draws them."""
    rng = random.Random(seed)
    while True:
        prime = rng.choice((2, 3, 5))
        columns = [[rng.randrange(prime) for _ in range(3)] for _ in range(rng.randrange(4, 13))]
        matroid = LinearMatroid(prime, 3, columns)
        if matroid.full_rank() == 3:
            return matroid


class TestShiftTuples:
    def test_walker_matches_flat_product_with_fewer_queries(self):
        specs = [
            ("uniform", dict(n=6, rank=2)),
            ("graphic", dict(vertices=4, n=6)),
            ("linear", dict(prime=3, rows=3, n=6)),
            ("bases", dict(n=6, rank=3)),
        ]
        walker_calls = flat_calls = compared = 0
        for seed in range(80):
            cls, params = specs[seed % 4]
            k = 2 + seed % 4
            inst = random_instance(InstanceGenSpec(cls, k=k, seed=seed, **params))
            for offsets in ((1,), (1, 2)) if k >= 3 else ((1,),):
                calls = [0, 0]

                def counted(side):
                    def is_basis(s):
                        calls[side] += 1
                        return inst.matroid.is_basis(s)
                    return is_basis

                walked = walk_sets(counted(0), inst.bases, inst.seed, offsets)
                flat = flat_shift_tuples(counted(1), inst.bases, inst.seed, offsets)
                assert walked == flat, (seed, offsets)
                assert calls[0] <= calls[1], (seed, offsets, calls)
                walker_calls += calls[0]
                flat_calls += calls[1]
                compared += 1
        assert compared == 140
        assert walker_calls < flat_calls

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.integers(0, 5), st.integers(0, 2**32).map(random_rank3_linear)),
           st.integers(3, 4), st.randoms(use_true_random=False))
    def test_search_verdict_matches_flat_product(self, source, k, rng):
        # one (bases, A_1) candidate of a catalog or random rank-3 matroid
        matroid = search_catalog()[source] if isinstance(source, int) else source
        masks = search_masks(matroid)
        picked = [rng.choice(masks) for _ in range(k)]
        size = rng.randrange(1, 3)  # A_i empty or all of B_i always shifts
        pools = [verify._subsets(b, size) for b in picked]
        a1 = rng.choice(pools[0])
        walk = verify._shift_tuples(frozenset(masks).__contains__, verify._check_plan(k, (1, 2)),
                                    picked, pools, a1)
        shifts_jointly = next(walk, None) is not None
        flat = flat_shift_tuples(matroid.is_basis, [mask_to_set(b) for b in picked],
                                 mask_to_set(a1), (1, 2))
        assert shifts_jointly == bool(flat)

    @pytest.mark.parametrize("k, catalog, budget", [(3, None, 1000), (4, [], 150)])
    def test_every_search_candidate_matches_flat_product(self, monkeypatch, k, catalog, budget):
        # the verdict the search itself reaches on each candidate it checks:
        # k = 3 scans the catalog up to the K_4 witness, and k = 4 with the
        # catalog cut scans the seeded random linear phase
        if catalog is not None:
            monkeypatch.setattr(verify, "_search_catalog", lambda: catalog)
        seen, current = [], []
        matroids, walker = verify._search_matroids, verify._shift_tuples

        def tracked(seed):
            for phase, matroid in matroids(seed):
                current[:] = [matroid]
                yield phase, matroid

        def recorded(is_basis, plan, bases, pools, a1):
            found = next(walker(is_basis, plan, bases, pools, a1), None)
            seen.append((current[0], bases, a1, found is not None))
            return iter([] if found is None else [found])

        skipped, trivial = [], verify._shifts_trivially

        def skipping(bases, a1):  # a skipped candidate must shift jointly
            if trivial(bases, a1):
                skipped.append(a1)
                seen.append((current[0], bases, a1, True))
                return True
            return False

        monkeypatch.setattr(verify, "_search_matroids", tracked)
        monkeypatch.setattr(verify, "_shift_tuples", recorded)
        monkeypatch.setattr(verify, "_shifts_trivially", skipping)
        out = search_shift2_counterexample(k, budget=budget)
        assert len(seen) == (163 if catalog is None else budget)
        assert isinstance(out, Shift2Witness) == (catalog is None)
        # both kinds: an A_1 inside every basis of the tuple, and a full one
        assert 0 in skipped and any(a1.bit_count() == 3 for a1 in skipped)
        assert any(0 < a1.bit_count() < 3 for a1 in skipped)
        for matroid, bases, a1, shifts_jointly in seen:
            flat = flat_shift_tuples(matroid.is_basis, [mask_to_set(b) for b in bases],
                                     mask_to_set(a1), (1, 2))
            assert shifts_jointly == bool(flat)

    @pytest.mark.parametrize("base", [10**6 - 7, 10**9])
    def test_brute_force_on_huge_ids_matches_flat_product(self, base):
        m = UniformMatroid(base + 12, 4)
        ids = [base + d for d in (0, 3, 5, 6, 8, 11)]
        bases = (frozenset(ids[:4]), frozenset(ids[2:]), frozenset(ids[:2] + ids[4:]))
        inst = ExchangeInstance(m, bases, frozenset(ids[:2]))
        solutions = brute_force_cyclic_exchange(inst)
        assert solutions == flat_shift_tuples(m.is_basis, bases, inst.seed, (1,))
        assert 0 < len(solutions) < 6 ** 2


class TestRandomInstance:
    def test_deterministic(self):
        spec = InstanceGenSpec("uniform", k=3, seed=1, n=6, rank=2)
        a, b = random_instance(spec), random_instance(spec)
        assert a.bases == b.bases and a.seed == b.seed
        assert matroid_to_json(a.matroid) == matroid_to_json(b.matroid)

    def test_linear_rank_bounded_by_rows(self):
        spec = InstanceGenSpec("linear", k=2, seed=3, prime=2, rows=3, n=7)
        inst = random_instance(spec)
        assert inst.matroid.full_rank() == 3

    def test_graphic_bases_are_maximal_forests(self):
        spec = InstanceGenSpec("graphic", k=2, seed=7, vertices=4, n=6)
        inst = random_instance(spec)
        r = inst.matroid.full_rank()
        for b in inst.bases:
            assert inst.matroid.is_basis(b)
            assert len(b) == r

    @pytest.mark.parametrize("cls,params", [
        ("uniform", dict(n=8, rank=3)),
        ("graphic", dict(vertices=5, n=8)),
        ("linear", dict(prime=3, rows=4, n=8)),
        ("bases", dict(n=7, rank=3)),
    ])
    def test_generator_soundness(self, cls, params):
        for seed in range(20):
            inst = random_instance(InstanceGenSpec(cls, k=3, seed=seed, **params))
            assert all(inst.matroid.is_basis(b) for b in inst.bases)
            assert inst.seed <= inst.bases[0]
            assert inst.matroid.full_rank() >= 1

    def test_degenerate_spec_raises(self):
        with pytest.raises(GenerationError):
            random_instance(InstanceGenSpec("uniform", k=2, seed=0, n=4, rank=0))
        with pytest.raises(GenerationError):
            random_instance(InstanceGenSpec("graphic", k=2, seed=0, vertices=1, n=3))

    def test_unknown_class_rejected(self):
        with pytest.raises(ValidationError):
            InstanceGenSpec("transversal", k=2, seed=0, n=4)

    def test_missing_params_rejected(self):
        with pytest.raises(ValidationError):
            InstanceGenSpec("linear", k=2, seed=0, n=4)

    @pytest.mark.parametrize("cls, params, message", [
        ("uniform", dict(k="3", n=4, rank=2), "k must be an integer, got '3'"),
        ("uniform", dict(k=2, n=4.0, rank=2), "n must be an integer, got 4.0"),
        ("bases", dict(k=2, n=4, rank="2"), "rank must be an integer, got '2'"),
        ("graphic", dict(k=2, vertices=[4], n=5), "vertices must be an integer, got [4]"),
        ("linear", dict(k=2, prime=None, rows=2, n=4), "class 'linear' requires parameter 'prime'"),
        ("linear", dict(k=2, prime=2.0, rows=2, n=4), "prime must be an integer, got 2.0"),
        ("linear", dict(k=2, prime=2, rows="2", n=4), "rows must be an integer, got '2'"),
    ])
    def test_non_integer_params_rejected(self, cls, params, message):
        with pytest.raises(ValidationError) as info:
            InstanceGenSpec(cls, seed=0, **params)
        assert str(info.value) == message

    @pytest.mark.parametrize("seed", [[1], "1", 1.0, None])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(ValidationError) as info:
            random_instance(InstanceGenSpec("uniform", k=2, seed=seed, n=4, rank=2))
        assert str(info.value) == f"seed must be an integer, got {seed!r}"


def k4_witness():
    """The first witness the catalog search finds; verified independently in
    test_search_finds_the_k4_witness below."""
    k4 = GraphicMatroid(4, K4_EDGES)
    return Shift2Witness(
        matroid=k4,
        description=matroid_to_json(k4),
        bases=(frozenset({0, 1, 2}), frozenset({0, 1, 4}), frozenset({0, 2, 4})),
        seed=frozenset({1}),
        tuples_checked=9,
    )


class TestSearch:
    def test_k_below_three_rejected(self):
        with pytest.raises(ValidationError):
            search_shift2_counterexample(2)

    def test_k_above_the_depth_cap_rejected(self):
        # The cap itself is searched; one more level is refused unbuilt.
        report = search_shift2_counterexample(verify.MAX_SEARCH_K, budget=0)
        assert report.candidates_checked == 0
        with pytest.raises(SizeLimitError, match="takes k <= 4096, got 4097"):
            search_shift2_counterexample(verify.MAX_SEARCH_K + 1, budget=0)

    @pytest.mark.parametrize("k, budget, message", [
        ("3", 10, "k must be an integer, got '3'"),
        (3.0, 10, "k must be an integer, got 3.0"),
        (3, "10", "budget must be an integer, got '10'"),
        (2, "10", "the shift-by-two question needs k >= 3, got 2"),
    ])
    def test_non_integer_arguments_rejected(self, k, budget, message):
        with pytest.raises(ValidationError) as info:
            search_shift2_counterexample(k, budget=budget)
        assert str(info.value) == message

    @pytest.mark.parametrize("kwargs, message", [
        (dict(time_limit="x"), "time_limit must be a real number or None, got 'x'"),
        (dict(time_limit=[5]), "time_limit must be a real number or None, got [5]"),
        (dict(seed=[1]), "seed must be an integer, got [1]"),
        (dict(seed="1"), "seed must be an integer, got '1'"),
    ])
    def test_bad_time_limit_or_seed_rejected(self, kwargs, message):
        with pytest.raises(ValidationError) as info:
            search_shift2_counterexample(3, budget=10, **kwargs)
        assert str(info.value) == message

    @pytest.mark.parametrize("kwargs, message", [
        (dict(budget=-1), "budget must be >= 0, got -1"),
        (dict(time_limit=-0.5), "time_limit must be >= 0, got -0.5"),
        (dict(time_limit=fractions.Fraction(-1, 2)), "time_limit must be >= 0, got Fraction(-1, 2)"),
        (dict(time_limit=float("nan")), "time_limit must be >= 0, got nan"),
    ])
    def test_negative_or_nan_limits_rejected(self, kwargs, message):
        # Neither is a limit: no search checks fewer than no candidates, and
        # no clock reading passes a NaN deadline.
        with pytest.raises(ValidationError) as info:
            search_shift2_counterexample(3, **kwargs)
        assert str(info.value) == message

    @pytest.mark.parametrize("time_limit", [60, 60.5, fractions.Fraction(121, 2), True])
    def test_real_time_limits_accepted(self, time_limit):
        report = search_shift2_counterexample(3, budget=10, time_limit=time_limit)
        assert report.time_limit is time_limit
        assert report.candidates_checked == 10

    def test_zero_time_limit_exhausts_immediately(self):
        report = search_shift2_counterexample(3, budget=None, time_limit=0)
        assert isinstance(report, ExhaustionReport)
        assert report.candidates_checked == 0
        assert report.matroids_examined == 0
        assert report.budget is None and report.time_limit == 0

    def test_zero_budget_exhausts_immediately(self):
        report = search_shift2_counterexample(3, budget=0)
        assert isinstance(report, ExhaustionReport)
        assert report.candidates_checked == 0
        assert report.matroids_examined == 0
        assert report.phase_counts == {"catalog": 0, "random_linear": 0}

    def test_search_finds_the_k4_witness(self):
        out = search_shift2_counterexample(3, budget=200_000)
        assert isinstance(out, Shift2Witness)
        expected = k4_witness()
        assert out.description == expected.description
        assert out.bases == expected.bases
        assert out.seed == expected.seed
        assert verify_witness(out)

    def test_search_is_deterministic(self):
        a = search_shift2_counterexample(3, budget=200_000, seed=5)
        b = search_shift2_counterexample(3, budget=200_000, seed=5)
        assert witness_to_json(a) == witness_to_json(b)

    def test_exhaustion_counts_are_exact_and_deterministic(self):
        # the first witness sits at candidate 163, so a budget of 100 exhausts
        a = search_shift2_counterexample(3, budget=100)
        b = search_shift2_counterexample(3, budget=100)
        assert isinstance(a, ExhaustionReport)
        assert a.candidates_checked == 100
        assert a.phase_counts["catalog"] == 100
        assert exhaustion_to_json(a) == exhaustion_to_json(b)

    def test_outputs_match_golden_digest(self):
        # pins the candidate order, the budget checks and every report count
        assert search_sweep_digest() == GOLDEN_SEARCH_DIGEST

    def test_random_phase_matches_golden_digest(self, monkeypatch):
        monkeypatch.setattr(verify, "_search_catalog", lambda: [UniformMatroid(3, 3)])
        assert search_sweep_digest() == GOLDEN_SEARCH_DIGEST_RANDOM

    def test_catalog_is_built_only_as_far_as_the_scan_goes(self, monkeypatch):
        # the K_4 witness ends a k = 3 search long before the truncated K_5
        built = []
        init = BasisMatroid.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(BasisMatroid, "__init__", counting_init)
        assert isinstance(search_shift2_counterexample(3, budget=1000), Shift2Witness)
        assert built == []

    def test_a_witness_that_fails_re_verification_raises(self, monkeypatch):
        monkeypatch.setattr(verify, "verify_witness", lambda witness: False)
        with pytest.raises(InternalVerificationError, match="failed re-verification"):
            search_shift2_counterexample(3, budget=1000)

    @pytest.mark.parametrize("k", range(3, 8))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_every_k_stops_at_a_k4_witness(self, k, seed):
        # --seed steers only the random linear phase, which comes after the
        # whole catalog, so every seed returns the same K_4 witness
        out = search_shift2_counterexample(k, budget=256, seed=seed)
        assert isinstance(out, Shift2Witness)
        assert out.description == k4_witness().description
        assert out.tuples_checked == 3 ** (k - 1)
        assert verify_witness(out)

    def test_witness_serialization_round_trip(self):
        w = k4_witness()
        obj = witness_to_json(w)
        back = witness_from_json(obj)
        assert witness_to_json(back) == obj
        assert verify_witness(back)


class TestWitnessFromJson:
    @pytest.mark.parametrize("field,value", [
        ("tuples_checked", True),
        ("tuples_checked", -1),
        ("k", 3.0),
    ])
    def test_rejects_bad_counts(self, field, value):
        obj = {**witness_to_json(k4_witness()), field: value}
        with pytest.raises(FormatError):
            witness_from_json(obj)

    def test_rejects_boolean_k(self):
        obj = witness_to_json(k4_witness())
        obj = {**obj, "k": True, "bases": obj["bases"][:1]}
        with pytest.raises(FormatError):
            witness_from_json(obj)


class TestVerifyWitness:
    def test_accepts_the_real_witness(self):
        assert verify_witness(k4_witness())

    def test_does_not_use_the_walker(self, monkeypatch):
        # the re-check enumerates on its own, so a walker fault cannot hide
        def broken(*args):
            raise AssertionError("verify_witness called the walker")

        monkeypatch.setattr(verify, "_shift_tuples", broken)
        assert verify_witness(k4_witness())

    def test_rejects_wrong_rank(self):
        m = UniformMatroid(4, 2)
        w = Shift2Witness(m, matroid_to_json(m),
                          (frozenset({0, 1}),) * 3, frozenset({0}), 4)
        assert not verify_witness(w)

    def test_rejects_k_below_three(self):
        k4 = GraphicMatroid(4, K4_EDGES)
        w = Shift2Witness(k4, matroid_to_json(k4),
                          (frozenset({0, 1, 2}), frozenset({3, 4, 5})), frozenset({0}), 3)
        assert not verify_witness(w)

    def test_rejects_jointly_solvable_mutation(self):
        # replacing every basis by the same tree admits the identity solution
        k4 = GraphicMatroid(4, K4_EDGES)
        tree = frozenset({0, 1, 2})
        w = Shift2Witness(k4, matroid_to_json(k4), (tree, tree, tree), frozenset({1}), 9)
        assert not verify_witness(w)

    def test_rejects_non_basis_entry(self):
        real = k4_witness()
        w = Shift2Witness(
            real.matroid, real.description,
            (frozenset({0, 1, 3}),) + real.bases[1:],  # triangle, not a tree
            real.seed, real.tuples_checked,
        )
        assert not verify_witness(w)

    def test_rejects_seed_outside_first_basis(self):
        real = k4_witness()
        w = Shift2Witness(real.matroid, real.description, real.bases, frozenset({3}), 9)
        assert not verify_witness(w)

    def test_rejects_out_of_range_ids(self):
        real = k4_witness()
        w = Shift2Witness(real.matroid, real.description,
                          (frozenset({0, 1, 9}),) + real.bases[1:], real.seed, 9)
        assert not verify_witness(w)

    def test_rejects_a_family_without_shift_by_one(self):
        # Not a matroid: two disjoint bases break the exchange axiom.  With
        # B_1 = B_3 = {0, 1, 2} and A_1 = {0}, the second shifted set holds
        # 0 and two of {3, 4, 5}, never a basis, so no tuple shifts by one;
        # for a real matroid the paper's theorem gives one.
        m = BasisMatroid(6, [{0, 1, 2}, {3, 4, 5}], validate=False)
        bases = (frozenset({0, 1, 2}), frozenset({3, 4, 5}), frozenset({0, 1, 2}))
        w = Shift2Witness(m, matroid_to_json(m), bases, frozenset({0}), 9)
        assert not verify_witness(w)

    def test_uniform_candidates_are_never_witnesses(self):
        m = UniformMatroid(6, 3)
        bases = (frozenset({0, 1, 2}), frozenset({1, 2, 3}), frozenset({2, 3, 4}))
        for seed_size in range(4):
            w = Shift2Witness(m, matroid_to_json(m), bases,
                              frozenset(sorted(bases[0])[:seed_size]), 1)
            assert not verify_witness(w)


class TestOracleOnPipeline:
    def test_constructive_output_always_in_oracle_list(self):
        checked = 0
        for seed in range(80):
            cls, params = [
                ("uniform", dict(n=5, rank=2)),
                ("graphic", dict(vertices=4, n=5)),
                ("linear", dict(prime=3, rows=2, n=5)),
                ("bases", dict(n=5, rank=2)),
            ][seed % 4]
            inst = random_instance(InstanceGenSpec(cls, k=2 + seed % 3, seed=seed, **params))
            if sum(len(b) for b in inst.bases) > 12:
                continue
            solutions = brute_force_cyclic_exchange(inst)
            assert solutions
            assert cyclic_exchange(inst).parts[1:] in set(solutions)
            checked += 1
        assert checked >= 50
