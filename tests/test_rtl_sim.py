"""Tests for the cycle-driven RTL simulator.

Every behavioural class runs against the compiled simulator and, through
its ``...Reference`` subclass at the end of the file, against the
reference interpreter it must agree with.
"""

from dataclasses import replace

import pytest

from repro.rtl import ast
from repro.rtl.elaborate import elaborate
from repro.rtl.parser import parse
from repro.rtl.sim import RtlSimulator, SimulationError
from tests.sim_reference import ReferenceSimulator
from tests.test_rtl_parser import LISTING_1


class SimulatorCase:
    """Base of the behavioural classes: builds ``SIM`` simulators."""

    SIM = RtlSimulator

    def make_sim(self, text: str, top: str | None = None):
        return self.SIM(elaborate(parse(text), top=top))


class TestListing1Behaviour(SimulatorCase):
    def test_two_cycle_delay(self):
        # Step convention: inputs are applied, then the clock edge fires.
        # i presented in cycle k is captured by df1 at the end of cycle k
        # and reaches o at the end of cycle k+1 — two edges end to end.
        sim = self.make_sim(LISTING_1, top="top")
        outputs = []
        stimulus = [1, 0, 1, 1, 0, 0, 1]
        for value in stimulus:
            sim.step({"i": value})
            outputs.append(sim.value("o"))
        assert outputs == [0] + stimulus[:-1]

    def test_trace_events(self):
        sim = self.make_sim(LISTING_1, top="top")
        trace = sim.run(4, stimulus=[{"i": 1}, {"i": 0}, {"i": 0}, {"i": 0}])
        assert trace.final_cycle == 3
        assert trace.value_of("top.df1.q", 0) == 1
        assert trace.value_of("top.df2.q", 1) == 1
        assert trace.value_of("top.o", 1) == 1
        assert trace.value_of("top.o", 2) == 0


class TestCombinational(SimulatorCase):
    def test_assign_chain(self):
        sim = self.make_sim(
            """
            module m(input a, output o);
              wire b;
              assign b = ~a;
              assign o = ~b;
            endmodule
            """
        )
        sim.step({"a": 1})
        assert sim.value("o") == 1
        sim.step({"a": 0})
        assert sim.value("o") == 0

    def test_order_independence(self):
        # Declared out of dependency order; scheduler must topo-sort.
        sim = self.make_sim(
            """
            module m(input a, output o);
              wire b;
              assign o = b;
              assign b = a;
            endmodule
            """
        )
        sim.step({"a": 1})
        assert sim.value("o") == 1

    def test_combinational_loop_rejected(self):
        with pytest.raises(SimulationError):
            self.make_sim(
                """
                module m(input a, output o);
                  wire x;
                  assign x = o;
                  assign o = x;
                endmodule
                """
            )

    def test_multiple_drivers_rejected(self):
        with pytest.raises(SimulationError):
            self.make_sim(
                """
                module m(input a, output o);
                  assign o = a;
                  assign o = ~a;
                endmodule
                """
            )

    def test_arithmetic_and_width_truncation(self):
        sim = self.make_sim(
            """
            module m(input [3:0] a, input [3:0] b, output [3:0] sum);
              assign sum = a + b;
            endmodule
            """
        )
        sim.step({"a": 12, "b": 7})
        assert sim.value("sum") == (12 + 7) & 0xF

    def test_ternary_and_compare(self):
        sim = self.make_sim(
            """
            module m(input [7:0] a, input [7:0] b, output [7:0] o);
              assign o = (a < b) ? a : b;
            endmodule
            """
        )
        sim.step({"a": 9, "b": 4})
        assert sim.value("o") == 4

    def test_concat_and_selects(self):
        sim = self.make_sim(
            """
            module m(input [7:0] a, output [7:0] o, output bit3);
              assign o = {a[3:0], a[7:4]};
              assign bit3 = a[3];
            endmodule
            """
        )
        sim.step({"a": 0xA5})
        assert sim.value("o") == 0x5A
        assert sim.value("bit3") == 0

    def test_division_by_zero_is_zero(self):
        sim = self.make_sim(
            """
            module m(input [7:0] a, input [7:0] b, output [7:0] q, output [7:0] r);
              assign q = a / b;
              assign r = a % b;
            endmodule
            """
        )
        sim.step({"a": 9, "b": 0})
        assert sim.value("q") == 0
        assert sim.value("r") == 0

    def test_reduction_operators(self):
        sim = self.make_sim(
            """
            module m(input [3:0] a, output all1, output any1, output par);
              assign all1 = &a;
              assign any1 = |a;
              assign par = ^a;
            endmodule
            """
        )
        sim.step({"a": 0xF})
        assert (sim.value("all1"), sim.value("any1"), sim.value("par")) == (1, 1, 0)
        sim.step({"a": 0x1})
        assert (sim.value("all1"), sim.value("any1"), sim.value("par")) == (0, 1, 1)


class TestSequential(SimulatorCase):
    COUNTER = """
    module counter(input clk, input rst, output reg [7:0] count);
      always @(posedge clk)
        if (rst) count <= 8'd0;
        else count <= count + 8'd1;
    endmodule
    """

    def test_counter(self):
        sim = self.make_sim(self.COUNTER)
        sim.step({"rst": 1})
        assert sim.value("count") == 0
        for _ in range(5):
            sim.step({"rst": 0})
        assert sim.value("count") == 5

    def test_nonblocking_simultaneous_swap(self):
        sim = self.make_sim(
            """
            module swap(input clk, input load, input [3:0] x, output reg [3:0] a);
              reg [3:0] b;
              always @(posedge clk)
                if (load) begin
                  a <= x;
                  b <= x + 4'd1;
                end else begin
                  a <= b;
                  b <= a;
                end
            endmodule
            """
        )
        sim.step({"load": 1, "x": 3})
        assert sim.value("a") == 3
        sim.step({"load": 0})
        assert sim.value("a") == 4  # got old b, not new a
        sim.step({"load": 0})
        assert sim.value("a") == 3

    def test_ff_and_comb_driver_conflict_rejected(self):
        with pytest.raises(SimulationError):
            self.make_sim(
                """
                module m(input clk, input d, output reg q);
                  assign q = d;
                  always @(posedge clk) q <= d;
                endmodule
                """
            )

    def test_last_write_wins_in_block(self):
        sim = self.make_sim(
            """
            module m(input clk, input d, output reg q);
              always @(posedge clk) begin
                q <= 1'b0;
                q <= d;
              end
            endmodule
            """
        )
        sim.step({"d": 1})
        assert sim.value("q") == 1

    def test_inputs_hold_between_steps(self):
        sim = self.make_sim(self.COUNTER)
        sim.step({"rst": 1})
        sim.step({"rst": 0})
        sim.step()  # rst stays 0
        assert sim.value("count") == 2


class TestExpressionEvaluator(SimulatorCase):
    """Property-style checks of the evaluator vs hand-computed values."""

    A_VALUES = (0, 1, 7, 0x80, 0xFE, 0xFF)
    B_VALUES = (0, 1, 3, 9, 0x80, 0xFF)

    @pytest.mark.parametrize("op,fn", [
        ("+", lambda a, b: a + b),
        ("-", lambda a, b: a - b),
        ("*", lambda a, b: a * b),
        ("&", lambda a, b: a & b),
        ("|", lambda a, b: a | b),
        ("^", lambda a, b: a ^ b),
        ("==", lambda a, b: int(a == b)),
        ("!=", lambda a, b: int(a != b)),
        ("<", lambda a, b: int(a < b)),
        ("<=", lambda a, b: int(a <= b)),
        (">", lambda a, b: int(a > b)),
        (">=", lambda a, b: int(a >= b)),
        ("<<", lambda a, b: a << min(b, 64)),
        (">>", lambda a, b: a >> b),
        ("&&", lambda a, b: int(bool(a) and bool(b))),
        ("||", lambda a, b: int(bool(a) or bool(b))),
    ])
    def test_binary_ops_match_python(self, op, fn):
        sim = self.make_sim(
            f"""
            module m(input [7:0] a, input [7:0] b, output [7:0] o);
              assign o = a {op} b;
            endmodule
            """
        )
        for a in self.A_VALUES:
            for b in self.B_VALUES:
                sim.step({"a": a, "b": b})
                assert sim.value("o") == fn(a, b) & 0xFF, (op, a, b)

    @pytest.mark.parametrize("op,fn", [
        ("~", lambda a: ~a),
        ("!", lambda a: int(a == 0)),
        ("-", lambda a: -a),
        ("&", lambda a: int(a == 0xFF)),
        ("|", lambda a: int(a != 0)),
        ("^", lambda a: bin(a).count("1") & 1),
    ])
    def test_unary_ops_match_python(self, op, fn):
        sim = self.make_sim(
            f"""
            module m(input [7:0] a, output [7:0] o);
              assign o = {op}a;
            endmodule
            """
        )
        for a in self.A_VALUES:
            sim.step({"a": a})
            assert sim.value("o") == fn(a) & 0xFF, (op, a)

    def test_wide_intermediate_truncates_at_the_target(self):
        # The sum is computed unmasked; only the 4-bit target truncates.
        sim = self.make_sim(
            """
            module m(input [3:0] a, output [3:0] narrow, output [7:0] wide);
              assign narrow = a + a + a;
              assign wide = a + a + a;
            endmodule
            """
        )
        sim.step({"a": 15})
        assert sim.value("narrow") == 45 & 0xF
        assert sim.value("wide") == 45

    def test_oversized_shift_counts_do_not_explode(self):
        sim = self.make_sim(
            """
            module m(input [7:0] a, input [7:0] n, output [7:0] l, output [7:0] r);
              assign l = a << n;
              assign r = a >> n;
            endmodule
            """
        )
        sim.step({"a": 0xFF, "n": 0xFF})
        assert sim.value("l") == 0
        assert sim.value("r") == 0

    def test_input_values_mask_to_port_width(self):
        sim = self.make_sim(
            """
            module m(input [3:0] a, output [3:0] o);
              assign o = a;
            endmodule
            """
        )
        sim.step({"a": 0x1F2})
        assert sim.value("o") == 0x2

    def test_unknown_input_is_a_key_error(self):
        sim = self.make_sim(LISTING_1, top="top")
        with pytest.raises(KeyError, match="unknown signal"):
            sim.step({"no_such_port": 1})

    def test_driving_a_combinational_output_is_overridden_by_settle(self):
        sim = self.make_sim(
            """
            module m(input a, output o);
              assign o = ~a;
            endmodule
            """
        )
        sim.step({"a": 1, "o": 1})
        assert sim.value("o") == 0  # settle recomputes ~a


class TestPreset(SimulatorCase):
    COUNTER = TestSequential.COUNTER

    def test_preset_seeds_state_and_resettles(self):
        sim = self.make_sim(self.COUNTER)
        sim.step({"rst": 0})
        sim.step()
        sim.preset({"count": 40}, reset=True)
        assert sim.cycle == -1
        assert sim.value("count") == 40
        sim.step({"rst": 0})
        assert sim.value("count") == 41

    def test_preset_masks_to_signal_width(self):
        sim = self.make_sim(self.COUNTER)
        sim.preset({"count": 0x1FF}, reset=True)
        assert sim.value("count") == 0xFF

    def test_preset_unknown_signal_is_a_key_error(self):
        sim = self.make_sim(self.COUNTER)
        with pytest.raises(KeyError, match="unknown signal"):
            sim.preset({"no_such": 1})


class TestErrorContext:
    """A SimulationError mid-run names the cycle and the offending
    signal/statement.  Only the interpreter can fail mid-run; the
    compiled simulator rejects the same constructs at construction
    (:class:`TestCompileTimeRejection`)."""

    def bogus(self, operand_name: str) -> ast.UnaryOp:
        # An operator the evaluator does not implement, to force a
        # SimulationError from deep inside expression evaluation.
        return ast.UnaryOp(op="%%", operand=ast.Identifier(operand_name))

    def test_settle_error_names_signal_and_cycle(self):
        design = elaborate(parse(
            """
            module m(input a, output o);
              assign o = ~a;
            endmodule
            """
        ))
        sim = ReferenceSimulator(design)
        sim.step({"a": 1})
        broken = replace(sim._order[0], value=self.bogus("m.a"))
        sim._order = [broken]
        with pytest.raises(SimulationError) as err:
            sim.step({"a": 0})
        message = str(err.value)
        assert "cycle 1" in message
        assert "while settling 'm.o'" in message
        assert "unsupported unary operator" in message

    def test_ff_error_names_driven_signal_and_cycle(self):
        design = elaborate(parse(TestSequential.COUNTER))
        sim = ReferenceSimulator(design)
        sim.step({"rst": 1})
        ff = design.ffs[0]
        design.ffs[0] = replace(
            ff, body=ast.NonBlocking(target="counter.count",
                                     value=self.bogus("counter.rst")),
        )
        with pytest.raises(SimulationError) as err:
            sim.step({"rst": 0})
        message = str(err.value)
        assert "cycle 1" in message
        assert "always block driving counter.count" in message
        assert "in assignment to 'counter.count'" in message
        assert "unsupported unary operator" in message


class TestCompileTimeRejection:
    """The compiled simulator refuses an unsupported construct when it
    is built, naming the signal the construct drives."""

    bogus = TestErrorContext.bogus

    def test_assign_error_names_driven_signal(self):
        design = elaborate(parse(
            """
            module m(input a, output o);
              assign o = ~a;
            endmodule
            """
        ))
        design.assigns[0] = replace(design.assigns[0],
                                    value=self.bogus("m.a"))
        with pytest.raises(SimulationError) as err:
            RtlSimulator(design)
        message = str(err.value)
        assert "driver of 'm.o'" in message
        assert "unsupported unary operator" in message

    def test_ff_error_names_driven_signal(self):
        design = elaborate(parse(TestSequential.COUNTER))
        design.ffs[0] = replace(
            design.ffs[0],
            body=ast.If(ast.Identifier("counter.rst"),
                        ast.NonBlocking("counter.count", ast.BinaryOp(
                            "**", ast.Identifier("counter.count"),
                            ast.Number(2)))),
        )
        with pytest.raises(SimulationError) as err:
            RtlSimulator(design)
        message = str(err.value)
        assert "always block driving counter.count" in message
        assert "in assignment to 'counter.count'" in message
        assert "unsupported binary operator '**'" in message


class _Reference:
    SIM = ReferenceSimulator


class TestListing1BehaviourReference(_Reference, TestListing1Behaviour):
    pass


class TestCombinationalReference(_Reference, TestCombinational):
    pass


class TestSequentialReference(_Reference, TestSequential):
    pass


class TestExpressionEvaluatorReference(_Reference, TestExpressionEvaluator):
    pass


class TestPresetReference(_Reference, TestPreset):
    pass
