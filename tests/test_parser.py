"""Tests for the Verilog-subset parser."""

import pytest

from repro.diag import DiagnosticSink
from repro.hdl import ast, parse, parse_expression, parse_module, parse_statement
from repro.hdl.lexer import LexerError
from repro.hdl.parser import _BINARY_LEVELS, ParseError


class TestExpressions:
    def test_precedence_add_mul(self):
        expr = parse_expression("a + b * c")
        assert isinstance(expr, ast.BinaryOp) and expr.op == "+"
        assert isinstance(expr.right, ast.BinaryOp) and expr.right.op == "*"

    def test_precedence_compare_logical(self):
        expr = parse_expression("a == b && c < d")
        assert expr.op == "&&"
        assert expr.left.op == "=="
        assert expr.right.op == "<"

    def test_precedence_bitwise_layers(self):
        expr = parse_expression("a | b ^ c & d")
        assert expr.op == "|"
        assert expr.right.op == "^"
        assert expr.right.right.op == "&"

    def test_left_associativity(self):
        expr = parse_expression("a - b - c")
        assert expr.op == "-"
        assert expr.left.op == "-"

    def test_ternary(self):
        expr = parse_expression("sel ? a : b")
        assert isinstance(expr, ast.Ternary)

    def test_nested_ternary_right_associative(self):
        expr = parse_expression("s1 ? a : s2 ? b : c")
        assert isinstance(expr.iffalse, ast.Ternary)

    def test_unary_reduction(self):
        expr = parse_expression("&bits")
        assert isinstance(expr, ast.UnaryOp) and expr.op == "&"

    def test_unary_plus_dropped(self):
        expr = parse_expression("+a")
        assert isinstance(expr, ast.Identifier)

    def test_index(self):
        expr = parse_expression("mem[3]")
        assert isinstance(expr, ast.Index)

    def test_part_select(self):
        expr = parse_expression("word[15:8]")
        assert isinstance(expr, ast.PartSelect)

    def test_indexed_part_select_up(self):
        expr = parse_expression("word[i +: 8]")
        assert isinstance(expr, ast.IndexedPartSelect)
        assert expr.ascending

    def test_indexed_part_select_down(self):
        expr = parse_expression("word[i -: 8]")
        assert not expr.ascending

    def test_chained_postfix(self):
        expr = parse_expression("mem[i][3]")
        assert isinstance(expr, ast.Index)
        assert isinstance(expr.var, ast.Index)

    def test_concat(self):
        expr = parse_expression("{a, b, c}")
        assert isinstance(expr, ast.Concat)
        assert len(expr.parts) == 3

    def test_replication(self):
        expr = parse_expression("{4{bit}}")
        assert isinstance(expr, ast.Repeat)

    def test_size_cast(self):
        expr = parse_expression("42'(x >> 6)")
        assert isinstance(expr, ast.SizeCast)
        assert expr.width == 42

    def test_sized_number_not_cast(self):
        expr = parse_expression("8'hFF")
        assert isinstance(expr, ast.Number)
        assert expr.width == 8

    def test_signed_call_is_identity(self):
        expr = parse_expression("$signed(a)")
        assert isinstance(expr, ast.Identifier)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("a + b extra")


class TestStatements:
    def test_nonblocking(self):
        stmt = parse_statement("q <= d;")
        assert isinstance(stmt, ast.NonblockingAssign)

    def test_blocking(self):
        stmt = parse_statement("q = d;")
        assert isinstance(stmt, ast.BlockingAssign)

    def test_if_else(self):
        stmt = parse_statement("if (c) a <= 1; else a <= 0;")
        assert isinstance(stmt, ast.If)
        assert stmt.else_stmt is not None

    def test_dangling_else_binds_inner(self):
        stmt = parse_statement("if (a) if (b) x <= 1; else x <= 2;")
        assert stmt.else_stmt is None
        assert stmt.then_stmt.else_stmt is not None

    def test_begin_end_block(self):
        stmt = parse_statement("begin a <= 1; b <= 2; end")
        assert isinstance(stmt, ast.Block)
        assert len(stmt.statements) == 2

    def test_labeled_block(self):
        stmt = parse_statement("begin : label a <= 1; end")
        assert isinstance(stmt, ast.Block)

    def test_case(self):
        stmt = parse_statement(
            "case (s) 0: a <= 1; 1, 2: a <= 2; default: a <= 0; endcase"
        )
        assert isinstance(stmt, ast.Case)
        assert len(stmt.items) == 3
        assert stmt.items[1].labels and len(stmt.items[1].labels) == 2
        assert stmt.items[2].labels == []

    def test_casez(self):
        stmt = parse_statement("casez (s) 0: a <= 1; endcase")
        assert stmt.casez

    def test_for_loop(self):
        stmt = parse_statement("for (i = 0; i < 4; i = i + 1) mem[i] <= 0;")
        assert isinstance(stmt, ast.For)

    def test_display(self):
        stmt = parse_statement('$display("x=%d", x);')
        assert isinstance(stmt, ast.Display)
        assert stmt.format == "x=%d"
        assert len(stmt.args) == 1

    def test_finish(self):
        stmt = parse_statement("$finish;")
        assert isinstance(stmt, ast.Finish)

    def test_concat_lvalue(self):
        stmt = parse_statement("{hi, lo} <= value;")
        assert isinstance(stmt.lhs, ast.Concat)

    def test_part_select_lvalue(self):
        stmt = parse_statement("data[7:0] <= b;")
        assert isinstance(stmt.lhs, ast.PartSelect)

    def test_empty_statement(self):
        stmt = parse_statement(";")
        assert isinstance(stmt, ast.Block)
        assert not stmt.statements

    def test_unsupported_system_task(self):
        with pytest.raises(ParseError):
            parse_statement("$random;")


class TestModules:
    def test_module_ports(self):
        module = parse_module(
            "module m (input wire clk, output reg [7:0] q); endmodule"
        )
        assert [p.name for p in module.ports] == ["clk", "q"]
        assert module.ports[1].kind is ast.NetKind.REG
        assert module.ports[1].bit_width == 8

    def test_parameters(self):
        module = parse_module(
            "module m #(parameter W = 8, parameter D = 4) (input wire c); endmodule"
        )
        assert [p.name for p in module.params] == ["W", "D"]

    def test_implicit_port_declarations(self):
        module = parse_module(
            "module m (input wire clk, output reg [3:0] q); endmodule"
        )
        assert module.find_declaration("q").bit_width == 4

    def test_localparam(self):
        module = parse_module(
            "module m (input wire c); localparam X = 3; endmodule"
        )
        decls = [i for i in module.items if isinstance(i, ast.ParameterDecl)]
        assert decls and decls[0].local

    def test_multi_name_declaration(self):
        module = parse_module(
            "module m (input wire c); reg [3:0] a, b, d; endmodule"
        )
        names = {x.name for x in module.declarations()}
        assert {"a", "b", "d"} <= names

    def test_memory_declaration(self):
        module = parse_module(
            "module m (input wire c); reg [7:0] mem [0:15]; endmodule"
        )
        decl = module.find_declaration("mem")
        assert decl.array_depth == 16
        assert decl.bit_width == 8

    def test_wire_with_initializer(self):
        module = parse_module(
            "module m (input wire [3:0] a); wire [3:0] w = a + 1; endmodule"
        )
        assigns = [i for i in module.items if isinstance(i, ast.ContinuousAssign)]
        assert len(assigns) == 1

    def test_instance_with_params(self):
        source = parse(
            """
            module top (input wire clk);
                scfifo #(.LPM_WIDTH(8)) f0 (.clock(clk), .data());
            endmodule
            """
        )
        inst = [i for i in source.modules[0].items if isinstance(i, ast.Instance)]
        assert inst[0].params[0].name == "LPM_WIDTH"
        assert inst[0].ports[1].expr is None

    def test_always_star(self):
        module = parse_module(
            "module m (input wire a, output reg q); always @(*) q = a; endmodule"
        )
        always = [i for i in module.items if isinstance(i, ast.Always)][0]
        assert always.is_combinational

    def test_always_posedge_or_negedge(self):
        module = parse_module(
            "module m (input wire clk, input wire rst, output reg q);"
            " always @(posedge clk or negedge rst) q <= 1; endmodule"
        )
        always = [i for i in module.items if isinstance(i, ast.Always)][0]
        assert [s.edge for s in always.sens] == [ast.Edge.POSEDGE, ast.Edge.NEGEDGE]

    def test_multiple_modules(self):
        source = parse(
            "module a (input wire x); endmodule module b (input wire y); endmodule"
        )
        assert [m.name for m in source.modules] == ["a", "b"]

    def test_parse_module_rejects_multiple(self):
        with pytest.raises(ParseError):
            parse_module("module a (input wire x); endmodule module b (input wire y); endmodule")

    def test_missing_semicolon_raises(self):
        with pytest.raises(ParseError):
            parse_module("module m (input wire c) endmodule")


def grouped(expr):
    """*expr* fully parenthesized, to read off precedence and grouping."""
    if isinstance(expr, ast.BinaryOp):
        return "(%s %s %s)" % (grouped(expr.left), expr.op, grouped(expr.right))
    if isinstance(expr, ast.UnaryOp):
        return "(%s%s)" % (expr.op, grouped(expr.operand))
    if isinstance(expr, ast.Ternary):
        return "(%s ? %s : %s)" % (
            grouped(expr.cond), grouped(expr.iftrue), grouped(expr.iffalse)
        )
    if isinstance(expr, ast.Identifier):
        return expr.name
    return repr(expr)


ALL_BINARY_OPS = [op for level in _BINARY_LEVELS for op in level]


class TestPrecedenceAndAssociativity:
    @pytest.mark.parametrize("op", ALL_BINARY_OPS)
    def test_every_operator_is_left_associative(self, op):
        text = "a {0} b {0} c {0} d".format(op)
        assert grouped(parse_expression(text)) == "(((a {0} b) {0} c) {0} d)".format(op)

    @pytest.mark.parametrize("level", range(len(_BINARY_LEVELS) - 1))
    def test_each_level_binds_looser_than_the_next(self, level):
        for low in _BINARY_LEVELS[level]:
            for high in _BINARY_LEVELS[level + 1]:
                assert grouped(parse_expression("a %s b %s c" % (low, high))) == (
                    "(a %s (b %s c))" % (low, high)
                )
                assert grouped(parse_expression("a %s b %s c" % (high, low))) == (
                    "((a %s b) %s c)" % (high, low)
                )

    def test_same_level_operators_mix_left_to_right(self):
        assert grouped(parse_expression("a + b - c + d")) == "(((a + b) - c) + d)"
        assert grouped(parse_expression("a ^ b ~^ c ^~ d")) == "(((a ^ b) ~^ c) ^~ d)"

    @pytest.mark.parametrize("text, expected", [
        ("a - b - c", "((a - b) - c)"),
        ("a << b + c", "(a << (b + c))"),
        ("a == b & c", "((a == b) & c)"),
        ("a ^~ b | c", "((a ^~ b) | c)"),
        ("a || b && c | d ^ e & f == g < h << i + j * k",
         "(a || (b && (c | (d ^ (e & (f == (g < (h << (i + (j * k))))))))))"),
        ("a * b + c << d < e == f & g ^ h | i && j || k",
         "((((((((((a * b) + c) << d) < e) == f) & g) ^ h) | i) && j) || k)"),
        ("-a * ~b", "((-a) * (~b))"),
        ("&a | !b", "((&a) | (!b))"),
        ("a + (b - c) * d", "(a + ((b - c) * d))"),
    ])
    def test_grouping(self, text, expected):
        assert grouped(parse_expression(text)) == expected

    @pytest.mark.parametrize("text, expected", [
        ("a ? b : c ? d : e", "(a ? b : (c ? d : e))"),
        ("a ? b ? c : d : e", "(a ? (b ? c : d) : e)"),
        ("a || b ? c + d : e", "((a || b) ? (c + d) : e)"),
        ("a ? b ? c : d : e ? f : g", "(a ? (b ? c : d) : (e ? f : g))"),
    ])
    def test_nested_ternaries(self, text, expected):
        assert grouped(parse_expression(text)) == expected


class TestFrontEndErrorPositions:
    """``P0101``/``P0102`` from :func:`parse`, strict and sink modes."""

    TEXT = "module m (input wire c);\n  wire x = 1.5;\n  ` assign c = 0;\nendmodule"

    def test_strict_raises_the_first_lexical_error(self):
        with pytest.raises(LexerError) as info:
            parse(self.TEXT, filename="t.v")
        assert info.value.code == "P0102"
        assert str(info.value) == "t.v:2:12: error[P0102]: real literal '1.5' unsupported"

    def test_sink_reports_both_with_positions(self):
        sink = DiagnosticSink()
        parse(self.TEXT, filename="t.v", sink=sink)
        lexical = [(d.code, d.span.line, d.span.col) for d in sink
                   if d.code.startswith("P01")]
        assert lexical == [("P0102", 2, 12), ("P0101", 3, 3)]

    def test_eof_error_points_past_the_last_token(self):
        sink = DiagnosticSink()
        parse("module m (input wire c)\n  ", filename="t.v", sink=sink)
        assert [d.format() for d in sink] == [
            "t.v:1:24: error[P0201]: expected ';', got '<eof>'"
        ]
        with pytest.raises(ParseError) as info:
            parse("module m (input wire c)", filename="t.v")
        assert str(info.value) == "t.v:1:24: error[P0201]: expected ';', got '<eof>'"

    def test_empty_input_eof_is_on_the_last_line(self):
        with pytest.raises(ParseError) as info:
            parse_expression("\n\n// nothing")
        assert str(info.value).startswith("<input>:3:1: ")
