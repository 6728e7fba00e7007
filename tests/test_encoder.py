import dataclasses
import hashlib
import itertools
import math
import time

import pytest
from hypothesis import example, given, reject, settings, strategies as st

from rbcsp.analysis import p_threshold
from rbcsp.core import (
    Assignment,
    Constraint,
    CspInstance,
    CspParams,
    ForcedInfeasibleError,
    ModelKind,
    ParameterError,
    ParseError,
)
from rbcsp.encoder import (
    CnfFormula,
    encode_cnf,
    read_csp_native,
    read_dimacs,
    write_csp_native,
    write_dimacs,
    write_solution,
)
from rbcsp.generator import GenRequest, generate
from rbcsp.rng import derive_stream
from rbcsp.solver import SolveConfig, SolveStatus, dpll, enumerate_solutions

import reference_encoder as reference


def two_var_instance():
    params = CspParams(ModelKind.RD, 2, 2, 1.0, 1 / (2 * math.log(2)), 0.25)
    con = Constraint(scope=(0, 1), incompatible=(1,))  # forbids (0, 1)
    return CspInstance(params=params, constraints=(con,), seed=0)


def small_instances(count, model=ModelKind.RB, forced=False):
    params = CspParams.from_sizes(model, 2, 4, 3, 6, 1 / 3)
    return [
        generate(GenRequest(params, seed=derive_stream(2718, i), forced=forced))
        for i in range(count)
    ]


class TestEncodeCnf:
    def test_two_var_example(self):
        cnf = encode_cnf(two_var_instance())
        assert cnf.num_vars == 4
        assert cnf.clauses == ((1, 2), (3, 4), (-1, -2), (-3, -4), (-1, -4))

    def test_clause_count_formula(self):
        for inst in small_instances(10):
            cnf = encode_cnf(inst)
            n, d = inst.params.n, inst.sizes.d
            forbidden = sum(len(c.incompatible) for c in inst.constraints)
            assert len(cnf.clauses) == n + n * d * (d - 1) // 2 + forbidden

    def test_p0_model_count_is_domain_power(self):
        params = CspParams(ModelKind.RD, 2, 3, math.log(3) / math.log(3), 1 / math.log(3), 0.0)
        inst = generate(GenRequest(params, seed=0))
        res = dpll(encode_cnf(inst), SolveConfig(count_all=True))
        assert res.status is SolveStatus.SAT
        assert res.solutions == inst.sizes.d ** 3

    @pytest.mark.parametrize("model", [ModelKind.RB, ModelKind.RD])
    def test_model_count_equals_solution_count(self, model):
        for inst in small_instances(15, model=model):
            truth = enumerate_solutions(inst)
            res = dpll(encode_cnf(inst), SolveConfig(count_all=True))
            assert (res.solutions or 0) == truth

    def test_rejects_narrow_split(self):
        from rbcsp.core import ParameterError

        with pytest.raises(ParameterError):
            encode_cnf(two_var_instance(), split_width=2)


class TestLiteralRange:
    @pytest.mark.parametrize("lit", [0, 4, -4])
    def test_out_of_range_literal_rejected(self, lit):
        with pytest.raises(ParameterError, match=f"literal {lit} out of range"):
            CnfFormula(num_vars=3, clauses=((1, -2, 3), (-1, 2), (2, lit, 3)))

    @pytest.mark.parametrize("clauses", [(), ((),), ((1, -1), (), (3, -3, 2))])
    def test_in_range_clauses_accepted(self, clauses):
        assert CnfFormula(num_vars=3, clauses=clauses).clauses == clauses


class TestSplitting:
    def make_wide_instance(self, all_forbidden=False):
        # d = 6 forces domain clauses wider than 3
        params = CspParams.from_sizes(ModelKind.RB, 2, 4, 6, 5, 1 / 36)
        inst = generate(GenRequest(params, seed=31))
        if all_forbidden:
            every = tuple(range(36))
            params_full = CspParams.from_sizes(ModelKind.RD, 2, 4, 6, 5, 0.5)
            cons = (Constraint((0, 1), every),) + inst.constraints[1:]
            return CspInstance(params_full, cons, seed=31)
        return inst

    def test_width_bound_respected(self):
        inst = self.make_wide_instance()
        cnf = encode_cnf(inst, split_width=3)
        # k=2 and AMO clauses are narrow already, so every clause obeys the bound
        assert all(len(cl) <= 3 for cl in cnf.clauses)
        assert cnf.num_vars > 24  # auxiliaries allocated past n*d

    def test_satisfiability_preserved(self):
        inst = self.make_wide_instance()
        plain = dpll(encode_cnf(inst), SolveConfig())
        split = dpll(encode_cnf(inst, split_width=3), SolveConfig())
        assert plain.status == split.status == SolveStatus.SAT

    def test_unsat_preserved(self):
        inst = self.make_wide_instance(all_forbidden=True)
        assert enumerate_solutions(inst) == 0
        split = dpll(encode_cnf(inst, split_width=3), SolveConfig())
        assert split.status is SolveStatus.UNSAT

    def test_projected_model_count_preserved(self):
        inst = self.make_wide_instance()
        truth = enumerate_solutions(inst)
        cnf = encode_cnf(inst, split_width=3)
        n, d = inst.params.n, inst.sizes.d
        projected = 0
        for values in itertools.product(range(d), repeat=n):
            units = tuple(
                (u * d + v + 1) if values[u] == v else -(u * d + v + 1)
                for u in range(n) for v in range(d)
            )
            fixed = type(cnf)(cnf.num_vars, cnf.clauses + tuple((lit,) for lit in units))
            if dpll(fixed, SolveConfig()).status is SolveStatus.SAT:
                projected += 1
        assert projected == truth


class TestDimacs:
    def test_header_and_lines(self):
        text = write_dimacs(encode_cnf(two_var_instance()))
        lines = text.splitlines()
        assert "p cnf 4 5" in lines
        body = lines[lines.index("p cnf 4 5") + 1:]
        assert body == ["1 2 0", "3 4 0", "-1 -2 0", "-3 -4 0", "-1 -4 0"]

    def test_metadata_comments(self):
        inst = small_instances(1, forced=True)[0]
        text = write_dimacs(encode_cnf(inst))
        assert "c model=rb" in text
        assert "c forced=1" in text
        assert f"c seed={inst.seed}" in text
        # the hidden assignment itself never leaks
        assert "solution" not in text

    def test_byte_determinism(self):
        inst = small_instances(1)[0]
        assert write_dimacs(encode_cnf(inst)) == write_dimacs(encode_cnf(inst))

    def test_roundtrip_clause_multiset(self):
        cnf = encode_cnf(small_instances(1)[0])
        text = write_dimacs(cnf)
        parsed = []
        for line in text.splitlines():
            if line.startswith(("c", "p")):
                continue
            lits = [int(x) for x in line.split()]
            assert lits[-1] == 0
            parsed.append(tuple(lits[:-1]))
        assert sorted(parsed) == sorted(cnf.clauses)

    @pytest.mark.parametrize("split_width", [None, 3])
    def test_read_dimacs_roundtrip(self, split_width):
        for forced in (False, True):
            for inst in small_instances(4, forced=forced):
                cnf = encode_cnf(inst, split_width)
                back = read_dimacs(write_dimacs(cnf))
                assert (back.num_vars, back.clauses) == (cnf.num_vars, cnf.clauses)

    @pytest.mark.parametrize("text,clauses", [
        # a clause ends at its 0, not at the end of a line
        ("c comment\np cnf 3 2\n1 2\n3 0 -1\n0\n", ((1, 2, 3), (-1,))),
        # SATLIB files end the clause section with a '%' line
        ("p cnf 2 1\n1 -2 0\n%\n0\n\n", ((1, -2),)),
        ("p cnf 1 2\n1 0 0\n", ((1,), ())),
    ])
    def test_read_dimacs_token_stream(self, text, clauses):
        assert read_dimacs(text).clauses == clauses

    @pytest.mark.parametrize("text,line", [
        ("", 0),
        ("c only a comment\n", 1),
        ("1 2 0\n", 1),
        ("p cnf 2\n1 0\n", 1),
        ("p sat 2 1\n1 0\n", 1),
        ("p cnf -2 1\n1 0\n", 1),
        ("p cnf x 1\n1 0\n", 1),
        ("p cnf 2 1\np cnf 2 1\n1 0\n", 2),
        ("p cnf 2 1\n1 3 0\n", 2),
        ("p cnf 2 1\n1 -3 0\n", 2),
        ("p cnf 2 1\n1 a 0\n", 2),
        ("p cnf 2 1\n1 2\n", 2),
        ("p cnf 2 2\n1 2 0\n", 2),
        ("p cnf 2 1\n1 0\n2 0\n", 3),
    ])
    def test_read_dimacs_rejects(self, text, line):
        with pytest.raises(ParseError) as exc:
            read_dimacs(text)
        assert exc.value.line_no == line


class TestNativeFormat:
    def test_roundtrip_100_instances(self):
        params = CspParams.from_sizes(ModelKind.RB, 2, 5, 3, 7, 0.3)
        for i in range(50):
            inst = generate(GenRequest(params, seed=derive_stream(14, i)))
            assert read_csp_native(write_csp_native(inst)) == inst
        params_rd = CspParams.from_sizes(ModelKind.RD, 2, 5, 3, 7, 0.3)
        for i in range(50):
            inst = generate(GenRequest(params_rd, seed=derive_stream(15, i)))
            assert read_csp_native(write_csp_native(inst)) == inst

    def test_forced_roundtrip_drops_hidden(self):
        params = CspParams.from_sizes(ModelKind.RB, 2, 5, 3, 7, 0.3)
        inst = generate(GenRequest(params, seed=8, forced=True))
        back = read_csp_native(write_csp_native(inst))
        assert back.forced is None
        assert back.constraints == inst.constraints

    def test_empty_incompatible_serializes_bare_c_line(self):
        params = CspParams(ModelKind.RD, 2, 4, 0.5, 1.0, 0.0)
        inst = generate(GenRequest(params, seed=0))
        text = write_csp_native(inst)
        assert "\nt " not in text
        assert read_csp_native(text) == inst

    def test_hand_written_fixture(self):
        text = (
            "RBCSP 1\n"
            "params rd 2 2 1 0.72134752044448169 0.25 0\n"
            "sizes 2 1\n"
            "c 1 2\n"
            "t 1 2\n"
        )
        inst = read_csp_native(text)
        assert inst.constraints == (Constraint((0, 1), (1,)),)
        assert encode_cnf(inst).clauses == ((1, 2), (3, 4), (-1, -2), (-3, -4), (-1, -4))

    def test_parse_error_reports_line(self):
        text = "RBCSP 1\nparams rb 2 4 0.5 1 0.5 3\nsizes 2 6\nc 1 9\n"
        with pytest.raises(ParseError) as exc:
            read_csp_native(text)
        assert "line 4" in str(exc.value)

    def test_bad_header(self):
        with pytest.raises(ParseError):
            read_csp_native("CSP 2\n")

    def test_size_mismatch(self):
        text = "RBCSP 1\nparams rb 2 4 0.5 1 0.5 3\nsizes 3 6\n"
        with pytest.raises(ParseError) as exc:
            read_csp_native(text)
        assert "line 3" in str(exc.value)

    def test_repeated_scope_variable_names_line(self):
        text = "RBCSP 1\nparams rb 2 4 0.5 1 0.5 3\nsizes 2 6\n" + "c 1 2\nt 1 1\nt 1 2\n" * 2 + "c 3 3\n"
        with pytest.raises(ParseError) as exc:
            read_csp_native(text)
        assert "line 10" in str(exc.value)
        assert "repeated variable" in str(exc.value)

    def test_degenerate_params_line_is_parse_error(self):
        # alpha so small that d rounds to 1: derive_sizes rejects the family
        with pytest.raises(ParseError) as exc:
            read_csp_native("RBCSP 1\nparams rb 2 4 0.01 1 0.5 3\nsizes 1 6\n")
        assert "line 2" in str(exc.value)

    def test_huge_arity_params_line_fails_fast(self):
        start = time.perf_counter()
        with pytest.raises(ParseError) as exc:
            read_csp_native("RBCSP 1\nparams rb 10000000 10000000 0.8 1 0.3 1\nsizes 6 23\n")
        assert "line 2" in str(exc.value)
        assert time.perf_counter() - start < 1.0

    # RB k=2 n=4 d=2 m=6 q=2: every constraint forbids two of its four tuples
    SMALL_HEAD = "RBCSP 1\nparams rb 2 4 0.5 1 0.5 3\nsizes 2 6\n"
    ONE = "c 1 2\nt 1 1\nt 1 2\n"

    def parse_error(self, text):
        with pytest.raises(ParseError) as exc:
            read_csp_native(text)
        return exc.value.line_no, str(exc.value).split(": ", 1)[1]

    def test_known_tuples_out_of_order_name_the_second(self):
        # both 't' texts are ranked by the first constraint before the swap
        text = self.SMALL_HEAD + self.ONE + "c 1 3\nt 1 2\nt 1 1\n" + self.ONE * 4
        assert self.parse_error(text) == (9, "tuples out of ascending rank order")

    def test_order_is_checked_across_a_blank_line(self):
        text = self.SMALL_HEAD + self.ONE + "c 1 3\nt 1 2\n\nt 1 1\n" + self.ONE * 4
        assert self.parse_error(text) == (10, "tuples out of ascending rank order")

    def test_repeated_tuple_names_the_repeat(self):
        text = self.SMALL_HEAD + self.ONE + "c 2 3\nt 1 1\nt 1 1\n" + self.ONE * 4
        assert self.parse_error(text) == (9, "tuples out of ascending rank order")

    def test_known_tuples_before_first_constraint_name_the_first(self):
        text = self.SMALL_HEAD + "t 1 1\nt 1 2\n" + self.ONE * 6
        assert self.parse_error(text) == (4, "tuple line before any constraint line")

    def test_padded_tuple_lines_and_blank_lines_parse(self):
        body = "c 1 2\n  t 1 1 \n\n\tt  1 2\n   \n" + self.ONE * 4 + "c 3 4\nt 2 1\n\nt 2 2\t\n"
        inst = read_csp_native(self.SMALL_HEAD + body)
        assert inst.constraints == (Constraint((0, 1), (0, 1)),) * 5 + (Constraint((2, 3), (2, 3)),)

    def test_malformed_tuple_line_after_known_ones_names_itself(self):
        text = self.SMALL_HEAD + "c 1 2\nt 1 1\nt 1 3\n" + self.ONE * 5
        assert self.parse_error(text) == (6, "values out of range in 't 1 3'")

    def test_rb_wrong_tuple_count(self):
        # q = 2 for these params, give one tuple only
        text = (
            "RBCSP 1\nparams rb 2 4 0.5 1 0.5 3\nsizes 2 6\n"
            + "c 1 2\nt 1 1\n" * 6
        )
        with pytest.raises(ParseError):
            read_csp_native(text)


# sha256 over native text + DIMACS (split width 3) of seeds 1, 7 and 2024,
# recorded before constraints were stored as ranks; any change to the draw
# protocol, the tuple order or either writer moves these digests
BYTE_GOLDENS = [
    ("rb", 2, False, "8ecc7b66e9380ddd3efee7ae749cf168bd149a9e555e6e979c07189f26a061f5"),
    ("rb", 2, True, "7958533086ed2a87317ded9a0b992997617b4d8b418ed65f8907000b88040557"),
    ("rb", 3, False, "8b9a2bfb688ed439008a0d289791daf7bfb3736633c767306acbdb15d2e6cb1b"),
    ("rb", 3, True, "54c82bbc924792ef3d83ea70fae5440eb61ce3351013fcfb4d809317224b04b1"),
    ("rd", 2, False, "8a407293bc0a6e1c2a09a46b06066ac31a6c1354e45878ba3bf64ad26ea0d0e0"),
    ("rd", 2, True, "09d53be2abaa771873272af4ba6b47f6407c387faf77bfb0e8dbf53e933d6135"),
    ("rd", 3, False, "03ce9296695baf5e33512492255ca07bc0e8d9f9a6cbe836c7f11f0308be218e"),
    ("rd", 3, True, "dc88df498b74f9d1e407975752b4e4482607a3388964647308f2a91ead976788"),
]
GOLDEN_FAMILIES = {2: (12, 0.8, 1.5, 0.3), 3: (8, 0.6, 1.0, 0.3)}  # d=7 m=45, d=3 m=17


@pytest.mark.parametrize("model,k,forced,digest", BYTE_GOLDENS)
def test_output_bytes_golden(model, k, forced, digest):
    params = CspParams(ModelKind(model), k, *GOLDEN_FAMILIES[k])
    h = hashlib.sha256()
    for seed in (1, 7, 2024):
        inst = generate(GenRequest(params, seed=seed, forced=forced))
        h.update(write_csp_native(inst).encode())
        h.update(write_dimacs(encode_cnf(inst, 3)).encode())
    assert h.hexdigest() == digest


# sha256 of the DIMACS text of the seed-1 instance of the k = 2 family above
# (d = 7), random and forced, per split width; width 7 and no split leave
# every domain clause whole
SPLIT_GOLDENS = {
    (False, 3): "6ad32e7ff150860f6d63cd88a060f22167057e5ddf9465fbf938bd27fd1e03bb",
    (False, 4): "908594f16a9db40ecda40f14982ea8df26e003edff3a44b5e3d1a6c57c49e9eb",
    (False, 5): "5fbefb877a8e95644640bc0995e845c00c4b54d9fc7a55f66c823f6e5e1e6499",
    (False, 6): "e7787457b337cdcae1448d555660eb9439db1f3b77d39960ed2e99302602f60e",
    (False, 7): "d1a92cf714d8ecb2211e25cc29911fd0dd588c992887879d40ce32d98e96ca50",
    (False, None): "d1a92cf714d8ecb2211e25cc29911fd0dd588c992887879d40ce32d98e96ca50",
    (True, 3): "1f634f06fd2d3b79cf6d66930ca9c05c7b2cabdc6a244c4752675f9da22760d3",
    (True, 4): "27f75093272bc5bdc9e50d11caa2d43deac3ba55a472a4563a133cec977c3433",
    (True, 5): "029b2c3fc45cac2a1aa07ed3da9523035839d14e5aee498e64e431e4bc4317be",
    (True, 6): "9f3a6a0a140cd4db08300888eb57f2bf73a0d8758089d0ff27d2612b1bd43e5b",
    (True, 7): "c32f0ad94d92780e6f692bf9d1c9ef2e9fa472f8b3ff41005f7a8caee4b0a3ac",
    (True, None): "c32f0ad94d92780e6f692bf9d1c9ef2e9fa472f8b3ff41005f7a8caee4b0a3ac",
}


@pytest.mark.parametrize("forced,width", list(SPLIT_GOLDENS))
def test_split_width_golden(forced, width):
    params = CspParams(ModelKind.RB, 2, *GOLDEN_FAMILIES[2])
    inst = generate(GenRequest(params, seed=1, forced=forced))
    text = write_dimacs(encode_cnf(inst, width))
    assert hashlib.sha256(text.encode()).hexdigest() == SPLIT_GOLDENS[forced, width]


# sha256 of the DIMACS text of the seed-1 RB and RD k = 3, n = 10, alpha = 0.8,
# r = 1 instance at p_cr (d = 6, m = 23), random and forced; its clauses are
# 2, 3 and 6 literals wide unsplit and 2, 3 and 4 wide at split width 4
K3_DIMACS_GOLDENS = {
    ("rb", False, None): "055beda350c20e61d83b7085367fb078d139a46b07fae715ce8b4aaf9951a96f",
    ("rb", False, 4): "a6cedcdb75254512d9ffb92b7a417d3a67a3bf0ee1760e66068e6f0b0a59094d",
    ("rb", True, None): "166e2cc2ba8233aeb14202b81f52819a5f3b04ab2cd392c40ff52c43255eb609",
    ("rb", True, 4): "661969df5a41b4f44cfa559fbb9b7cfbb982cc997baa9c277477823d708ea806",
    ("rd", False, None): "a2ab83f64139f883b425c739472b94a5dfb5abd71045eb404aba81f9d399d9dc",
    ("rd", False, 4): "53625f05d361df0038c23dd4285bac3002f6d4201fb3858c53b86bf7ef8ecc18",
    ("rd", True, None): "a5cf8f622d58affb283757e7be95cd6d898bb0977164523823309276098e9474",
    ("rd", True, 4): "1e7a74f5f9d8c97043b27c892808bcaed23d5fa96778033fd1dddbbaeb7f6137",
}


@pytest.mark.parametrize("model,forced,width", list(K3_DIMACS_GOLDENS))
def test_k3_dimacs_golden(model, forced, width):
    params = CspParams(ModelKind(model), 3, 10, 0.8, 1.0, p_threshold(0.8, 1.0))
    inst = generate(GenRequest(params, seed=1, forced=forced))
    text = write_dimacs(encode_cnf(inst, width))
    assert hashlib.sha256(text.encode()).hexdigest() == K3_DIMACS_GOLDENS[model, forced, width]


@pytest.mark.parametrize("model", ["rb", "rd"])
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("width", [None, 3, 4])
def test_each_literal_value_is_one_int_object(model, k, forced, width):
    """encode_cnf builds every clause from one shared int per literal value,
    not a new int per occurrence."""
    params = CspParams(ModelKind(model), k, *GOLDEN_FAMILIES[k])
    inst = generate(GenRequest(params, seed=1, forced=forced))
    lits = list(itertools.chain.from_iterable(encode_cnf(inst, width).clauses))
    assert min(lits) < -5  # below CPython's small-int cache, which would share them anyway
    assert len(set(map(id, lits))) == len(set(lits))


def test_solution_sidecar_format():
    text = write_solution(Assignment((0, 2, 1)))
    assert text == "1 1\n2 3\n3 2\n"


PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@st.composite
def generated_instances(draw):
    """Small generated instances of either model, arity 2 or 3, random or forced."""
    model = draw(st.sampled_from(ModelKind))
    k = draw(st.sampled_from([2, 3]))
    n, d, m = draw(st.integers(k, 7)), draw(st.integers(2, 4)), draw(st.integers(1, 6))
    p = draw(st.floats(0.0, 1.0))
    try:
        params = CspParams.from_sizes(model, k, n, d, m, p)
        return generate(GenRequest(params, seed=draw(st.integers(0, 2 ** 64 - 1)), forced=draw(st.booleans())))
    except (ParameterError, ForcedInfeasibleError):
        reject()


@PROPERTY
@given(inst=generated_instances())
def test_native_write_read_is_identity(inst):
    assert read_csp_native(write_csp_native(inst)) == dataclasses.replace(inst, forced=None)


@PROPERTY
@given(inst=generated_instances(), split_width=st.sampled_from([None, 3, 4]))
def test_dimacs_write_read_is_identity(inst, split_width):
    cnf = encode_cnf(inst, split_width)
    back = read_dimacs(write_dimacs(cnf))
    assert (back.num_vars, back.clauses) == (cnf.num_vars, cnf.clauses)


def _rd_p0(k, seed):
    # RD at p = 0: every constraint forbids no tuple
    return generate(GenRequest(CspParams.from_sizes(ModelKind.RD, k, 6, 3, 5, 0.0), seed=seed))


@PROPERTY
@given(inst=generated_instances(), split_width=st.sampled_from([None, 3, 4]))
@example(inst=_rd_p0(2, 1), split_width=None)
@example(inst=_rd_p0(3, 2), split_width=3)
def test_run_at_a_time_io_matches_clause_at_a_time_reference(inst, split_width):
    cnf = encode_cnf(inst, split_width)
    assert cnf == reference.encode_cnf(inst, split_width)
    assert write_dimacs(cnf) == reference.write_dimacs(cnf)
    text = write_csp_native(inst)
    assert read_csp_native(text) == reference.read_csp_native(text)


def _rebuilt_checked(inst):
    """`inst`'s fields passed again through the checked constructors."""
    constraints = tuple(Constraint(scope=con.scope, incompatible=con.incompatible)
                        for con in inst.constraints)
    return CspInstance(params=inst.params, constraints=constraints, seed=inst.seed, forced=inst.forced)


def _assert_producers_pass_the_constructor_checks(inst):
    """generate, read_csp_native, encode_cnf and read_dimacs skip the
    constructors' checks; what they build must pass those checks unchanged."""
    assert inst == _rebuilt_checked(inst)
    back = read_csp_native(write_csp_native(inst))
    assert back == _rebuilt_checked(back)
    for width in (None, 3, 4):
        cnf = encode_cnf(inst, width)
        assert cnf == CnfFormula(cnf.num_vars, cnf.clauses, cnf.metadata)
        read = read_dimacs(write_dimacs(cnf))
        assert read == CnfFormula(read.num_vars, read.clauses, read.metadata)


@pytest.mark.parametrize("model", ["rb", "rd"])
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("forced", [False, True])
def test_producers_build_what_the_checked_constructors_build(model, k, forced):
    params = CspParams(ModelKind(model), k, *GOLDEN_FAMILIES[k])
    for seed in (1, 7, 2024):
        _assert_producers_pass_the_constructor_checks(generate(GenRequest(params, seed=seed, forced=forced)))


@PROPERTY
@given(inst=generated_instances())
@example(inst=_rd_p0(2, 1))
@example(inst=_rd_p0(3, 2))
def test_small_producer_outputs_pass_the_constructor_checks(inst):
    _assert_producers_pass_the_constructor_checks(inst)


def test_write_dimacs_empty_clause_and_mixed_widths():
    cnf = read_dimacs("p cnf 4 7\n1 -2 0\n3 4 0 0\n-1\n2 3 0\n4 0\n1 2 0\n0\n")
    assert cnf.clauses == ((1, -2), (3, 4), (), (-1, 2, 3), (4,), (1, 2), ())
    text = write_dimacs(cnf)
    assert text == reference.write_dimacs(cnf)
    assert text == "p cnf 4 7\n1 -2 0\n3 4 0\n0\n-1 2 3 0\n4 0\n1 2 0\n0\n"
    assert write_dimacs(CnfFormula(num_vars=0, clauses=())) == "p cnf 0 0\n"


_JUNK = ["", "x", "1.5", "nan", "inf", "1e-9", "1e999", "c", "t", "p", "cnf", "%", "rb", "rd"]
_EDITS = ["token", "token", "token", "delete", "duplicate", "swap", "char", "truncate"]


@st.composite
def mutated(draw, text):
    """`text` after one to three edits: replace a token (most often with a
    small integer), delete, duplicate or swap a line, insert a character, or
    cut the file short."""
    lines = [line.split() for line in text.splitlines()]
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            lines = [[draw(st.sampled_from(_JUNK))]]
            continue
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(_EDITS))
        if edit == "token" and lines[i]:
            token = draw(st.integers(-1, 5).map(str) | st.sampled_from(_JUNK))
            lines[i][draw(st.integers(0, len(lines[i]) - 1))] = token
        elif edit == "delete":
            del lines[i]
        elif edit == "duplicate":
            lines.insert(i, list(lines[i]))
        elif edit == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif edit == "char":
            line = " ".join(lines[i])
            at = draw(st.integers(0, len(line)))
            lines[i] = (line[:at] + draw(st.sampled_from(" 0123456789-.xectp%")) + line[at:]).split()
        elif edit == "truncate":
            lines = lines[:i]
    return "\n".join(" ".join(line) for line in lines) + draw(st.sampled_from(["\n", ""]))


_SEEDS_FOR_MUTATION = [
    generate(GenRequest(CspParams.from_sizes(ModelKind.RB, 2, 3, 2, 2, 0.25), seed=5, forced=True)),
    generate(GenRequest(CspParams.from_sizes(ModelKind.RD, 3, 4, 2, 2, 0.4), seed=6)),
]


@PROPERTY
@given(text=st.sampled_from([write_csp_native(inst) for inst in _SEEDS_FOR_MUTATION]).flatmap(mutated))
def test_mutated_native_text_raises_only_parse_error(text):
    try:
        read_csp_native(text)
    except ParseError:
        pass


def _outcome(read, text):
    try:
        return read(text)
    except ParseError as exc:
        return exc.line_no, str(exc)


@PROPERTY
@given(text=st.sampled_from([write_csp_native(inst) for inst in _SEEDS_FOR_MUTATION]).flatmap(mutated))
def test_mutated_native_text_reads_as_line_at_a_time_reference(text):
    assert _outcome(read_csp_native, text) == _outcome(reference.read_csp_native, text)


@PROPERTY
@given(text=st.sampled_from([write_dimacs(encode_cnf(inst, 3)) for inst in _SEEDS_FOR_MUTATION]).flatmap(mutated))
def test_mutated_dimacs_text_raises_only_parse_error(text):
    try:
        read_dimacs(text)
    except ParseError:
        pass
