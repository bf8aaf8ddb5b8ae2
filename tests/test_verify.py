"""Brute-force oracle, instance generator, and the shift-by-two search."""

import contextlib
import hashlib
import io

import pytest

from matrex import cli, verify
from matrex import (
    BasisMatroid,
    ExchangeInstance,
    ExhaustionReport,
    FormatError,
    GenerationError,
    GraphicMatroid,
    InstanceGenSpec,
    InternalVerificationError,
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

from helpers import K4_EDGES, flat_shift_tuples

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

                walked = list(verify._shift_tuples(counted(0), inst.bases, inst.seed, offsets))
                flat = flat_shift_tuples(counted(1), inst.bases, inst.seed, offsets)
                assert walked == flat, (seed, offsets)
                assert calls[0] <= calls[1], (seed, offsets, calls)
                walker_calls += calls[0]
                flat_calls += calls[1]
                compared += 1
        assert compared == 140
        assert walker_calls < flat_calls


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
