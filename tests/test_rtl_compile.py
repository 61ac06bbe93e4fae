"""The compiled RTL simulator against the reference interpreter.

:mod:`repro.rtl.compile` turns a design into straight-line Python;
:mod:`tests.sim_reference` keeps the AST interpreter it replaced.
The two must agree at every signal on every cycle:

* on hypothesis-generated designs that use every operator, nested
  concatenation and ternary operands of ``~`` and the reductions, shift
  counts over 64, division and modulo by zero, and flip-flop blocks that
  write one register several times;
* on every shipped design under random stimulus;
* inside :class:`RtlPut`, where the spec-cpu seed corpus and random
  programs must give the same trace columns, commits and windows when
  the reference interpreter drives the design.

The generated source must also be a pure function of the design:
byte-identical across processes with different hash seeds.
"""

import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fuzz.input import TestProgram
from repro.puts.rtl import RtlPut, RtlPutConfig
from repro.puts.spec_cpu import spec_cpu_seeds
from repro.rtl import ast
from repro.rtl.compile import compile_design
from repro.rtl.designs import LISTING_1, PIPELINE_CPU, SPEC_CPU
from repro.rtl.elaborate import elaborate
from repro.rtl.parser import parse
from repro.rtl.semantics import BINARY, UNARY
from repro.rtl.sim import RtlSimulator
from tests.sim_reference import ReferenceSimulator
from tests.test_puts import result_fingerprint

REPO = Path(__file__).resolve().parents[1]


def assert_lockstep(design, stimulus, presets=None):
    """Step both simulators through ``stimulus``; every signal must
    match after every cycle, and the recorded traces must be equal."""
    compiled, reference = RtlSimulator(design), ReferenceSimulator(design)
    if presets:
        compiled.preset(presets, reset=True)
        reference.preset(presets, reset=True)
    assert compiled.values == reference.values
    for cycle, inputs in enumerate(stimulus):
        compiled.step(inputs)
        reference.step(inputs)
        assert compiled.values == reference.values, f"cycle {cycle}"
    fast = compiled.run(len(stimulus), stimulus)
    slow = reference.run(len(stimulus), stimulus)
    assert fast.initial == slow.initial
    assert fast.columns() == slow.columns()
    assert fast.final_cycle == slow.final_cycle


def random_stimulus(design, rng: random.Random, cycles: int):
    inputs = design.top_inputs()
    return [{s.name: rng.getrandbits(s.width) for s in inputs
             if rng.random() < 0.8} for _ in range(cycles)]


# ----------------------------------------------------------------------
# Hypothesis-generated designs
# ----------------------------------------------------------------------

# Strategies draw *shapes*: identifiers are placeholders ``#k`` that
# :func:`bind` maps onto a design's signals, so one strategy object
# serves every design (hypothesis validates it once).
_PLACEHOLDER = st.integers(0, 15).map(lambda k: ast.Identifier(f"#{k}"))


def _extend(children):
    return st.one_of(
        st.builds(ast.UnaryOp, st.sampled_from(sorted(UNARY)), children),
        st.builds(ast.BinaryOp, st.sampled_from(sorted(BINARY)),
                  children, children),
        st.builds(ast.Ternary, children, children, children),
        st.builds(ast.BitSelect, _PLACEHOLDER, children),
        st.lists(children, min_size=1, max_size=3).map(
            lambda parts: ast.Concat(tuple(parts))),
    )


EXPRESSIONS = st.recursive(
    st.one_of(
        _PLACEHOLDER,
        st.builds(ast.Number,
                  st.one_of(st.integers(0, 300), st.integers(0, 1 << 70)),
                  st.one_of(st.none(), st.integers(1, 70))),
        st.builds(ast.PartSelect, _PLACEHOLDER, st.integers(0, 63),
                  st.integers(0, 63)),
    ),
    _extend, max_leaves=10)

_WRITE = st.builds(ast.NonBlocking, st.integers(0, 15).map(lambda k: f"#{k}"),
                   EXPRESSIONS)
STATEMENTS = st.recursive(
    _WRITE,
    lambda inner: st.one_of(
        st.builds(ast.If, EXPRESSIONS, inner, st.one_of(st.none(), inner)),
        st.lists(inner, max_size=4).map(lambda s: ast.Block(tuple(s))),
    ),
    max_leaves=8)


def bind(node, pool, regs):
    """``node`` with its placeholders mapped onto ``pool`` signals
    (``(name, width)`` pairs) and its write targets onto ``regs``."""
    def again(child):
        return None if child is None else bind(child, pool, regs)

    if isinstance(node, ast.Identifier):
        return ast.Identifier(pool[int(node.name[1:]) % len(pool)][0])
    if isinstance(node, ast.PartSelect):
        name, width = pool[int(node.base.name[1:]) % len(pool)]
        lsb = node.lsb % width
        return ast.PartSelect(ast.Identifier(name),
                              lsb + node.msb % (width - lsb), lsb)
    if isinstance(node, ast.Number):
        return node
    if isinstance(node, ast.UnaryOp):
        return ast.UnaryOp(node.op, again(node.operand))
    if isinstance(node, ast.BinaryOp):
        return ast.BinaryOp(node.op, again(node.left), again(node.right))
    if isinstance(node, ast.Ternary):
        return ast.Ternary(again(node.condition), again(node.if_true),
                           again(node.if_false))
    if isinstance(node, ast.BitSelect):
        return ast.BitSelect(again(node.base), again(node.index))
    if isinstance(node, ast.Concat):
        return ast.Concat(tuple(map(again, node.parts)))
    if isinstance(node, ast.NonBlocking):
        return ast.NonBlocking(regs[int(node.target[1:]) % len(regs)],
                               again(node.value))
    if isinstance(node, ast.If):
        return ast.If(again(node.condition), again(node.then_body),
                      again(node.else_body))
    return ast.Block(tuple(map(again, node.statements)))


@st.composite
def designs(draw):
    widths = st.integers(1, 64)
    inputs = [(f"i{k}", draw(widths)) for k in range(draw(st.integers(1, 3)))]
    regs = [(f"r{k}", draw(widths)) for k in range(draw(st.integers(1, 4)))]
    module = ast.Module(
        "m",
        ports=[ast.PortDecl("input", "clk")]
        + [ast.PortDecl("input", name, width) for name, width in inputs],
        nets=[ast.NetDecl("reg", name, width) for name, width in regs],
    )
    pool = inputs + regs
    reg_names = [name for name, _ in regs]
    for k in range(draw(st.integers(0, 4))):
        name, width = f"w{k}", draw(widths)
        module.nets.append(ast.NetDecl("wire", name, width))
        module.assigns.append(ast.ContAssign(
            name, bind(draw(EXPRESSIONS), pool, reg_names)))
        pool = pool + [(name, width)]
    for _ in range(draw(st.integers(1, 2))):
        body = draw(st.lists(STATEMENTS, min_size=1, max_size=5))
        module.always_blocks.append(ast.AlwaysFF(
            "clk", bind(ast.Block(tuple(body)), pool, reg_names)))
    return elaborate(ast.Source([module]))


class TestGeneratedDesigns:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(design=designs(), seed=st.integers(0, 2**32 - 1))
    def test_every_signal_matches_every_cycle(self, design, seed):
        rng = random.Random(seed)
        presets = {s.name: rng.getrandbits(s.width)
                   for s in design.state_signals()}
        stimulus = random_stimulus(design, rng, 12)
        # Writing a register or a wire as "input" forces a full settle.
        stimulus[3].update(presets)
        assert_lockstep(design, stimulus, presets)


class TestTargetedConstructs:
    """The constructs where the two copies of the rules once drifted."""

    @pytest.mark.parametrize("body", [
        "assign o = ~{a, b[2:0]};",
        "assign o = &{a, b};",
        "assign o = ^(a ? {b, a} : ~b);",
        "assign o = |(c ? a : b) + ~(a ? b : {a, b});",
        "assign o = {1'b0, ~(a & 8'h0F)} >> 1;",
        "assign o = &(a & 8'hFF);",
        "assign o = (a << b) >> c;",
        "assign o = (8'd3 << 64) >> 65;",
        "assign o = a << 70;",
        "assign o = {a, b} >> (b + 8'd60);",
        "assign o = a / b + a % c;",
        "assign o = (a / 8'd0) | (b % 8'd0);",
        "assign o = -a ^ (a - b);",
        "assign o = !(a && b) || (c < a) ? a[c] : b[7:4];",
        "assign o = {1'b1, 1'b1} + 4'hFF + 'd300;",
    ])
    def test_combinational(self, body):
        design = elaborate(parse(f"""
            module m(input [7:0] a, input [7:0] b, input [7:0] c,
                     output [7:0] o);
              {body}
            endmodule
        """))
        rng = random.Random(body)
        stimulus = random_stimulus(design, rng, 40)
        stimulus[0] = {"m.a": 0xFF, "m.b": 0, "m.c": 0xFF}
        assert_lockstep(design, stimulus)

    def test_multi_write_flip_flop_blocks(self):
        design = elaborate(parse("""
            module m(input clk, input [3:0] d, input [1:0] s,
                     output reg [3:0] q);
              reg [3:0] p;
              always @(posedge clk) begin
                q <= d;
                if (s[0]) q <= q + 4'd1;
                if (s[1]) begin
                  q <= p;
                  p <= q;
                end else begin
                end
                p <= p ^ d;
              end
              always @(posedge clk)
                if (s == 2'd3) p <= 4'd0;
            endmodule
        """))
        assert_lockstep(design, random_stimulus(design, random.Random(7), 60))


# ----------------------------------------------------------------------
# Shipped designs
# ----------------------------------------------------------------------


class TestShippedDesigns:
    @pytest.mark.parametrize("name,text,top", [
        ("listing-1", LISTING_1, "top"),
        ("pipeline-cpu", PIPELINE_CPU, None),
        ("spec-cpu", SPEC_CPU, None),
    ], ids=["listing-1", "pipeline-cpu", "spec-cpu"])
    def test_random_stimulus(self, name, text, top):
        design = elaborate(parse(text), top=top)
        assert_lockstep(design, random_stimulus(design, random.Random(name),
                                                200))

    def test_generated_source_is_hash_seed_independent(self):
        script = (
            "import hashlib\n"
            "from repro.rtl.compile import compile_design\n"
            "from repro.puts.spec_cpu import spec_cpu_design\n"
            "print(hashlib.sha256(compile_design(spec_cpu_design())"
            ".source.encode()).hexdigest())\n"
        )
        digests = set()
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=str(REPO / "src"))
            result = subprocess.run([sys.executable, "-c", script], env=env,
                                    capture_output=True, text=True,
                                    check=True)
            digests.add(result.stdout.strip())
        local = hashlib.sha256(compile_design(
            elaborate(parse(SPEC_CPU))).source.encode()).hexdigest()
        assert digests == {local}

    def test_compiles_once_per_simulator(self):
        design = elaborate(parse(LISTING_1), top="top")
        first, second = RtlSimulator(design), RtlSimulator(design)
        assert first.compiled is not second.compiled
        assert first.compiled.source == compile_design(design).source


# ----------------------------------------------------------------------
# RtlPut driven by either simulator
# ----------------------------------------------------------------------


class _ReferenceEngine:
    """The reference interpreter behind the slot interface ``RtlPut``
    drives: ``preset``, the ``state`` list and a step over it."""

    def __init__(self, design):
        self.reference = ReferenceSimulator(design)
        self.names = design.signal_names()
        self.state = [0] * len(self.names)

    def preset(self, values, *, reset=False):
        self.reference.preset(values, reset=reset)
        self._sync()

    def step(self, state):
        # ``state`` is the last synced state plus the harness's inputs.
        self.reference.values.update(zip(self.names, state))
        self.reference.step()
        self._sync()

    def _sync(self):
        values = self.reference.values
        self.state[:] = [values[name] for name in self.names]


def reference_put() -> RtlPut:
    put = RtlPut(RtlPutConfig())
    engine = _ReferenceEngine(put.offline_model())
    put.sim = engine
    put._step = engine.step
    return put


def random_programs(count: int, seed: int):
    """Programs drawn from the design's opcodes, so most words decode."""
    rng = random.Random(seed)
    opcodes = (0x13, 0x33, 0x03, 0x23, 0x63, 0x6F, 0x73)
    for _ in range(count):
        words = [(rng.getrandbits(25) << 7) | rng.choice(opcodes)
                 for _ in range(rng.randint(2, 12))]
        regs = [0] * 32
        for i in range(1, 8):
            regs[i] = 0x8100_0000 + rng.randrange(0, 0x200, 4)
        yield TestProgram(words=words, reg_init=regs,
                          data_seed=rng.getrandbits(16), max_cycles=120)


class TestRtlPutAgainstReference:
    def test_seed_corpus(self):
        fast, slow = RtlPut(RtlPutConfig()), reference_put()
        for program in spec_cpu_seeds(RtlPutConfig()):
            assert result_fingerprint(fast.run(program)) == \
                result_fingerprint(slow.run(program))

    def test_random_programs(self):
        fast, slow = RtlPut(RtlPutConfig()), reference_put()
        commits = 0
        for program in random_programs(30, seed=0x5EED):
            expected = slow.run(program)
            assert result_fingerprint(fast.run(program)) == \
                result_fingerprint(expected)
            commits += len(expected.commits)
        assert commits > 30  # the programs really execute
