"""Recursive-descent parser for the synthesizable Verilog subset.

The grammar covers what the paper's testbed designs and generated
instrumentation need: ANSI-style modules with parameters, vector and memory
declarations, continuous assigns, ``always`` blocks (edge-triggered and
combinational), if/case/casez/for statements, blocking and nonblocking
assignments, ``$display``/``$finish``, module instantiation with named
connections, and the SystemVerilog size-cast ``N'(expr)``.

Error handling is *recovering*: every syntax error becomes a
:class:`repro.diag.Diagnostic` (stable ``P02xx`` rule code, span with
file/line/column) and the parser re-synchronizes at the next ``;``,
``end``, ``endcase`` or ``endmodule`` — panic-mode recovery — so a
single run reports every error in a file. With no caller-provided sink,
:func:`parse` keeps its historical contract and raises
:class:`ParseError` (carrying all collected diagnostics) once parsing
finishes with errors; with a :class:`~repro.diag.DiagnosticSink` it
returns the partial AST and leaves the reporting to the caller.

Binary expressions are parsed by precedence climbing over one
operator -> level table (:data:`_BINARY_LEVELS`): one call per operand,
not one per precedence level. An EOF sentinel ends the token list, so
every lookahead is a single index.

Entry point: :func:`parse` (text -> :class:`repro.hdl.ast_nodes.Source`).
"""

from __future__ import annotations

from ..diag.model import DiagnosticSink, SourceSpan
from . import ast_nodes as ast
from .lexer import Token, tokenize


class ParseError(ValueError):
    """Raised on input the subset grammar does not accept.

    ``code`` is the stable rule code of the first error and
    ``diagnostics`` every structured finding from the recovering run.
    """

    def __init__(self, message, code="P0201", diagnostics=None):
        super().__init__(message)
        self.code = code
        self.diagnostics = list(diagnostics or [])


class _Recover(Exception):
    """Internal: unwind to the nearest synchronization point."""


_UNARY_OPS = frozenset(["~", "!", "-", "+", "&", "|", "^", "~&", "~|", "~^"])

# Binary operator precedence levels, lowest binding first.
_BINARY_LEVELS = [
    ["||"],
    ["&&"],
    ["|"],
    ["^", "~^", "^~"],
    ["&"],
    ["==", "!=", "===", "!=="],
    ["<", "<=", ">", ">="],
    ["<<", ">>", "<<<", ">>>"],
    ["+", "-"],
    ["*", "/", "%"],
]

#: Operator -> index of its level in :data:`_BINARY_LEVELS`.
_BINARY_PRECEDENCE = {
    op: level for level, ops in enumerate(_BINARY_LEVELS) for op in ops
}


class _Parser:
    def __init__(self, tokens, filename="<input>", sink=None, eof_line=None):
        self._filename = filename
        self._sink = sink if sink is not None else DiagnosticSink()
        if tokens:
            last = tokens[-1]
            eof_token = Token(
                "eof", "<eof>", last.lineno, col=last.col + len(last.text)
            )
        else:
            # Empty token list (blank or comment-only input): the EOF
            # token still points at the last real source line, not 0.
            eof_token = Token("eof", "<eof>", eof_line or 1, col=1)
        # EOF sentinels end the list, so every lookahead is one index:
        # the position never passes the first, and ``ahead=1`` from it
        # lands on the second.
        self._tokens = list(tokens) + [eof_token, eof_token]
        self._eof_pos = len(tokens)
        self._pos = 0

    # -- token helpers ----------------------------------------------------

    def _peek(self):
        return self._tokens[self._pos]

    def _next(self):
        token = self._tokens[self._pos]
        if self._pos < self._eof_pos:
            self._pos += 1
        return token

    def _at(self, kind, text=None, ahead=0):
        token = self._tokens[self._pos + ahead]
        return token.kind == kind and (text is None or token.text == text)

    def _accept(self, kind, text=None):
        # Never asked for "eof", so a match is never the sentinel.
        token = self._tokens[self._pos]
        if token.kind == kind and (text is None or token.text == text):
            self._pos += 1
            return token
        return None

    def _expect(self, kind, text=None):
        token = self._tokens[self._pos]
        if token.kind != kind or (text is not None and token.text != text):
            self._error(
                "P0201",
                "expected %r, got %r" % (text or kind, token.text),
                token,
            )
        self._pos += 1
        return token

    # -- diagnostics and recovery -----------------------------------------

    def _span(self, token):
        return SourceSpan(file=self._filename, line=token.lineno, col=token.col)

    def _emit_error(self, code, message, token, hint=""):
        """Record an error diagnostic without unwinding."""
        return self._sink.error(code, message, self._span(token), hint=hint)

    def _error(self, code, message, token=None, hint=""):
        """Record an error diagnostic and unwind to the nearest sync point."""
        self._emit_error(code, message, token or self._peek(), hint=hint)
        raise _Recover()

    def _sync(self, stop_before=()):
        """Panic-mode resync: skip tokens until after a ``;`` (consumed),
        before a keyword in *stop_before*, or end of input."""
        while not self._at("eof"):
            token = self._peek()
            if token.kind == "keyword" and token.text in stop_before:
                return
            self._next()
            if token.kind == "op" and token.text == ";":
                return

    def _recovering(self, parse_fn, stop_before):
        """Run *parse_fn*; on a syntax error, resync and return None.

        Guarantees forward progress: if the failed attempt consumed no
        tokens, one token is skipped before resynchronizing, so
        recovery loops always terminate.
        """
        before = self._pos
        try:
            return parse_fn()
        except _Recover:
            if self._pos == before and not self._at("eof"):
                self._next()
            self._sync(stop_before=stop_before)
            return None

    def _give_up(self):
        """True once the sink overflowed its error budget."""
        return self._sink.overflowed

    # -- top level ---------------------------------------------------------

    def parse_source(self):
        modules = []

        def sync_to_module():
            while not self._at("eof") and not self._at("keyword", "module"):
                self._next()

        while not self._at("eof") and not self._give_up():
            before = self._pos
            try:
                modules.append(self.parse_module())
            except _Recover:
                if self._pos == before and not self._at("eof"):
                    self._next()
                sync_to_module()
        if self._give_up():
            self._sink.note(
                "P0211",
                "too many syntax errors (%d); giving up on the rest of %s"
                % (self._sink.error_count, self._filename),
                self._span(self._peek()),
            )
        return ast.Source(modules=modules)

    def parse_module(self):
        self._expect("keyword", "module")
        name = self._expect("ident").text
        params = []
        if self._accept("op", "#"):
            self._expect("op", "(")
            while not self._at("op", ")") and not self._at("eof"):
                self._accept("keyword", "parameter")
                pname = self._expect("ident").text
                self._expect("op", "=")
                params.append(
                    ast.ParameterDecl(name=pname, value=self.parse_expression())
                )
                if not self._accept("op", ","):
                    break
            self._expect("op", ")")
        ports = []
        self._expect("op", "(")
        while not self._at("op", ")") and not self._at("eof"):
            ports.append(self._parse_port())
            if not self._accept("op", ","):
                break
        self._expect("op", ")")
        self._expect("op", ";")
        items = []
        while not self._at("keyword", "endmodule"):
            if self._at("eof") or self._give_up():
                self._emit_error(
                    "P0210",
                    "missing 'endmodule' before end of input "
                    "(module %r)" % name,
                    self._peek(),
                )
                break
            parsed = self._recovering(
                self._parse_item, stop_before=("endmodule",)
            )
            if parsed is not None:
                items.extend(parsed)
        self._accept("keyword", "endmodule")
        return self._with_port_declarations(
            ast.Module(name=name, params=params, ports=ports, items=items)
        )

    @staticmethod
    def _with_port_declarations(module):
        """Add implicit Declarations for ports not declared in the body."""
        declared = {d.name for d in module.declarations()}
        implicit = []
        for port in module.ports:
            if port.name in declared:
                continue
            implicit.append(
                ast.Declaration(
                    kind=port.kind,
                    name=port.name,
                    width=port.width,
                    signed=port.signed,
                )
            )
        module.items = implicit + module.items
        return module

    def _parse_port(self):
        token = self._next()
        if token.text not in ("input", "output", "inout"):
            self._error(
                "P0204",
                "expected port direction, got %r" % token.text,
                token,
                hint="ports are declared 'input wire x' / 'output reg y'",
            )
        direction = ast.PortDirection(token.text)
        kind = ast.NetKind.WIRE
        if self._at("keyword", "reg") or self._at("keyword", "wire"):
            kind = ast.NetKind(self._next().text)
        signed = bool(self._accept("keyword", "signed"))
        width = self._parse_optional_width()
        name = self._expect("ident").text
        return ast.Port(
            direction=direction, kind=kind, name=name, width=width, signed=signed
        )

    def _parse_optional_width(self):
        if not self._at("op", "["):
            return None
        self._next()
        msb = self.parse_expression()
        self._expect("op", ":")
        lsb = self.parse_expression()
        self._expect("op", "]")
        return ast.Width(msb=msb, lsb=lsb)

    # -- module items -------------------------------------------------------

    def _parse_item(self):
        token = self._peek()
        if token.kind == "keyword":
            if token.text in ("reg", "wire", "integer"):
                return self._parse_declaration()
            if token.text in ("parameter", "localparam"):
                return self._parse_parameter_item()
            if token.text == "assign":
                return [self._parse_continuous_assign()]
            if token.text == "always":
                return [self._parse_always()]
        if token.kind == "ident":
            return [self._parse_instance()]
        self._error(
            "P0202",
            "unexpected token %r in module body" % token.text,
            token,
        )

    def _parse_declaration(self):
        start = self._peek()
        lineno, col = start.lineno, start.col
        kind = ast.NetKind(self._next().text)
        signed = bool(self._accept("keyword", "signed"))
        width = None if kind is ast.NetKind.INTEGER else self._parse_optional_width()
        items = []
        while True:
            name = self._expect("ident").text
            array = self._parse_optional_width()
            decl = ast.Declaration(
                kind=kind,
                name=name,
                width=width,
                array=array,
                signed=signed,
                lineno=lineno,
                col=col,
            )
            items.append(decl)
            if self._accept("op", "="):
                if kind is not ast.NetKind.WIRE:
                    self._error(
                        "P0205",
                        "initializer only allowed on wire, not %s %s"
                        % (kind.value, name),
                        start,
                        hint="initialize regs inside an always block",
                    )
                items.append(
                    ast.ContinuousAssign(
                        lhs=ast.Identifier(name=name),
                        rhs=self.parse_expression(),
                        lineno=lineno,
                        col=col,
                    )
                )
            if not self._accept("op", ","):
                break
        self._expect("op", ";")
        return items

    def _parse_parameter_item(self):
        local = self._next().text == "localparam"
        items = []
        while True:
            name = self._expect("ident").text
            self._expect("op", "=")
            items.append(
                ast.ParameterDecl(name=name, value=self.parse_expression(), local=local)
            )
            if not self._accept("op", ","):
                break
        self._expect("op", ";")
        return items

    def _parse_continuous_assign(self):
        token = self._expect("keyword", "assign")
        lhs = self.parse_expression()
        self._expect("op", "=")
        rhs = self.parse_expression()
        self._expect("op", ";")
        return ast.ContinuousAssign(
            lhs=lhs, rhs=rhs, lineno=token.lineno, col=token.col
        )

    def _parse_always(self):
        token = self._expect("keyword", "always")
        self._expect("op", "@")
        self._expect("op", "(")
        sens = []
        if self._accept("op", "*"):
            sens.append(ast.SensItem(edge=ast.Edge.STAR))
        else:
            while True:
                if self._accept("keyword", "posedge"):
                    edge = ast.Edge.POSEDGE
                elif self._accept("keyword", "negedge"):
                    edge = ast.Edge.NEGEDGE
                else:
                    # Plain signal in sensitivity list: treat as combinational.
                    edge = ast.Edge.STAR
                signal = None
                if edge is not ast.Edge.STAR or self._at("ident"):
                    signal = self._expect("ident").text
                sens.append(ast.SensItem(edge=edge, signal=signal))
                if not (self._accept("keyword", "or") or self._accept("op", ",")):
                    break
        self._expect("op", ")")
        body = self.parse_statement()
        return ast.Always(
            sens=sens, body=body, lineno=token.lineno, col=token.col
        )

    def _parse_instance(self):
        start = self._peek()
        module_name = self._expect("ident").text
        params = []
        if self._accept("op", "#"):
            self._expect("op", "(")
            while not self._at("op", ")") and not self._at("eof"):
                self._expect("op", ".")
                pname = self._expect("ident").text
                self._expect("op", "(")
                params.append(
                    ast.ParamOverride(name=pname, value=self.parse_expression())
                )
                self._expect("op", ")")
                if not self._accept("op", ","):
                    break
            self._expect("op", ")")
        instance_name = self._expect("ident").text
        ports = []
        self._expect("op", "(")
        while not self._at("op", ")") and not self._at("eof"):
            self._expect("op", ".")
            port_name = self._expect("ident").text
            self._expect("op", "(")
            expr = None
            if not self._at("op", ")"):
                expr = self.parse_expression()
            self._expect("op", ")")
            ports.append(ast.PortConnection(port=port_name, expr=expr))
            if not self._accept("op", ","):
                break
        self._expect("op", ")")
        self._expect("op", ";")
        return ast.Instance(
            module_name=module_name,
            instance_name=instance_name,
            params=params,
            ports=ports,
            lineno=start.lineno,
            col=start.col,
        )

    # -- statements ----------------------------------------------------------

    def parse_statement(self):
        token = self._peek()
        if token.kind == "keyword":
            if token.text == "begin":
                return self._parse_block()
            if token.text == "if":
                return self._parse_if()
            if token.text in ("case", "casez"):
                return self._parse_case()
            if token.text == "for":
                return self._parse_for()
        if token.kind == "sysname":
            return self._parse_system_call()
        if self._accept("op", ";"):
            return ast.Block(statements=[])
        return self._parse_assignment()

    def _parse_block(self):
        self._expect("keyword", "begin")
        # Optional block label: "begin : name".
        if self._accept("op", ":"):
            self._expect("ident")
        statements = []
        terminators = ("end", "endmodule", "endcase")
        while not (
            self._peek().kind == "keyword" and self._peek().text in terminators
        ):
            if self._at("eof") or self._give_up():
                break
            stmt = self._recovering(self.parse_statement, terminators)
            if stmt is not None:
                statements.append(stmt)
        self._expect("keyword", "end")
        return ast.Block(statements=statements)

    def _parse_if(self):
        self._expect("keyword", "if")
        self._expect("op", "(")
        cond = self.parse_expression()
        self._expect("op", ")")
        then_stmt = self.parse_statement()
        else_stmt = None
        if self._accept("keyword", "else"):
            else_stmt = self.parse_statement()
        return ast.If(cond=cond, then_stmt=then_stmt, else_stmt=else_stmt)

    def _parse_case(self):
        start = self._next()
        casez = start.text == "casez"
        self._expect("op", "(")
        subject = self.parse_expression()
        self._expect("op", ")")
        items = []

        def parse_arm():
            if self._accept("keyword", "default"):
                self._accept("op", ":")
                return ast.CaseItem(labels=[], stmt=self.parse_statement())
            labels = [self.parse_expression()]
            while self._accept("op", ","):
                labels.append(self.parse_expression())
            self._expect("op", ":")
            return ast.CaseItem(labels=labels, stmt=self.parse_statement())

        while not self._at("keyword", "endcase"):
            if (
                self._at("eof")
                or self._at("keyword", "endmodule")
                or self._give_up()
            ):
                self._emit_error(
                    "P0201",
                    "expected 'endcase', got %r" % self._peek().text,
                    self._peek(),
                )
                break
            arm = self._recovering(parse_arm, ("endcase", "endmodule"))
            if arm is not None:
                items.append(arm)
        self._accept("keyword", "endcase")
        return ast.Case(
            subject=subject,
            items=items,
            casez=casez,
            lineno=start.lineno,
            col=start.col,
        )

    def _parse_for(self):
        token = self._expect("keyword", "for")
        self._expect("op", "(")
        init = self._parse_assignment(terminated=False)
        self._expect("op", ";")
        cond = self.parse_expression()
        self._expect("op", ";")
        step = self._parse_assignment(terminated=False)
        self._expect("op", ")")
        body = self.parse_statement()
        if not isinstance(init, ast.BlockingAssign) or not isinstance(
            step, ast.BlockingAssign
        ):
            self._error(
                "P0206",
                "for loop init/step must be blocking assignments",
                token,
                hint="use 'i = 0' / 'i = i + 1', not '<='",
            )
        return ast.For(init=init, cond=cond, step=step, body=body)

    def _parse_system_call(self):
        token = self._expect("sysname")
        name = token.text
        if name in ("$finish", "$stop"):
            if self._accept("op", "("):
                self._expect("op", ")")
            self._expect("op", ";")
            return ast.Finish()
        if name not in ("$display", "$write"):
            self._error(
                "P0207",
                "unsupported system task %s" % name,
                token,
                hint="only $display/$write/$finish/$stop are simulated",
            )
        self._expect("op", "(")
        fmt = self._expect("string")
        args = []
        while self._accept("op", ","):
            args.append(self.parse_expression())
        self._expect("op", ")")
        self._expect("op", ";")
        return ast.Display(
            format=fmt.text, args=args, lineno=token.lineno, col=token.col
        )

    def _parse_assignment(self, terminated=True):
        start = self._peek()
        lhs = self._parse_primary()
        if self._accept("op", "<="):
            rhs = self.parse_expression()
            stmt = ast.NonblockingAssign(
                lhs=lhs, rhs=rhs, lineno=start.lineno, col=start.col
            )
        elif self._accept("op", "="):
            rhs = self.parse_expression()
            stmt = ast.BlockingAssign(
                lhs=lhs, rhs=rhs, lineno=start.lineno, col=start.col
            )
        else:
            token = self._peek()
            self._error(
                "P0208",
                "expected assignment, got %r" % token.text,
                token,
            )
        if terminated:
            self._expect("op", ";")
        return stmt

    # -- expressions -----------------------------------------------------------

    def parse_expression(self):
        return self._parse_ternary()

    def _parse_ternary(self):
        cond = self._parse_binary(0)
        if self._accept("op", "?"):
            iftrue = self.parse_expression()
            self._expect("op", ":")
            iffalse = self.parse_expression()
            return ast.Ternary(cond=cond, iftrue=iftrue, iffalse=iffalse)
        return cond

    def _parse_binary(self, min_level):
        """Precedence climbing: fold every binary operator of level
        *min_level* or tighter. The right operand takes only tighter
        operators (``level + 1``), so each level associates left."""
        left = self._parse_unary()
        tokens = self._tokens
        while True:
            token = tokens[self._pos]
            if token.kind != "op":
                return left
            level = _BINARY_PRECEDENCE.get(token.text)
            if level is None or level < min_level:
                return left
            self._pos += 1
            right = self._parse_binary(level + 1)
            left = ast.BinaryOp(op=token.text, left=left, right=right)

    def _parse_unary(self):
        token = self._peek()
        if token.kind == "op" and token.text in _UNARY_OPS:
            self._next()
            operand = self._parse_unary()
            if token.text == "+":
                return operand
            return ast.UnaryOp(op=token.text, operand=operand)
        return self._parse_primary()

    def _parse_primary(self):
        token = self._peek()
        if token.kind == "number":
            self._next()
            # SystemVerilog size cast: N'(expr).
            if token.width is None and self._at("op", "'") and self._at("op", "(", 1):
                self._next()
                self._next()
                expr = self.parse_expression()
                self._expect("op", ")")
                return self._parse_postfix(
                    ast.SizeCast(width=token.value, expr=expr)
                )
            return ast.Number(
                value=token.value, width=token.width, signed=token.signed
            )
        if token.kind == "ident":
            self._next()
            return self._parse_postfix(ast.Identifier(name=token.text))
        if token.kind == "sysname" and token.text in ("$signed", "$unsigned"):
            self._next()
            self._expect("op", "(")
            expr = self.parse_expression()
            self._expect("op", ")")
            # Two-state simplification: treat as identity.
            return expr
        if self._accept("op", "("):
            expr = self.parse_expression()
            self._expect("op", ")")
            return self._parse_postfix(expr)
        if self._at("op", "{"):
            return self._parse_concat()
        self._error(
            "P0203",
            "unexpected token %r in expression" % token.text,
            token,
        )

    def _parse_concat(self):
        self._expect("op", "{")
        first = self.parse_expression()
        if self._at("op", "{"):
            self._next()
            expr = self.parse_expression()
            self._expect("op", "}")
            self._expect("op", "}")
            return ast.Repeat(count=first, expr=expr)
        parts = [first]
        while self._accept("op", ","):
            parts.append(self.parse_expression())
        self._expect("op", "}")
        return self._parse_postfix(ast.Concat(parts=parts))

    def _parse_postfix(self, expr):
        while self._at("op", "["):
            self._next()
            index = self.parse_expression()
            if self._accept("op", ":"):
                msb = index
                lsb = self.parse_expression()
                self._expect("op", "]")
                expr = ast.PartSelect(var=expr, msb=msb, lsb=lsb)
            elif self._accept("op", "+:"):
                width = self.parse_expression()
                self._expect("op", "]")
                expr = ast.IndexedPartSelect(
                    var=expr, base=index, width=width, ascending=True
                )
            elif self._accept("op", "-:"):
                width = self.parse_expression()
                self._expect("op", "]")
                expr = ast.IndexedPartSelect(
                    var=expr, base=index, width=width, ascending=False
                )
            else:
                self._expect("op", "]")
                expr = ast.Index(var=expr, index=index)
        return expr


def _raise_from_sink(sink):
    """Raise :class:`ParseError` for the first collected error."""
    first = sink.errors()[0]
    raise ParseError(
        first.format(), code=first.code, diagnostics=sink.diagnostics
    )


def _source_lines(text):
    return text.count("\n") + 1


def parse(text, filename="<input>", sink=None):
    """Parse Verilog source *text* into a :class:`repro.hdl.ast_nodes.Source`.

    With no *sink*, raises :class:`LexerError`/:class:`ParseError` on
    bad input (after collecting *all* errors via panic-mode recovery;
    the exception carries them on ``.diagnostics``). With a
    :class:`~repro.diag.DiagnosticSink`, records every error in the
    sink and returns the partial AST instead of raising.
    """
    strict = sink is None
    if strict:
        sink = DiagnosticSink()
        tokens = tokenize(text, filename=filename)
    else:
        tokens = tokenize(text, filename=filename, sink=sink)
    parser = _Parser(
        tokens, filename=filename, sink=sink, eof_line=_source_lines(text)
    )
    source = parser.parse_source()
    if strict and sink.has_errors:
        _raise_from_sink(sink)
    return source


def parse_module(text, filename="<input>"):
    """Parse source containing exactly one module and return it."""
    source = parse(text, filename=filename)
    if len(source.modules) != 1:
        raise ParseError(
            "expected exactly one module, got %d" % len(source.modules),
            code="P0209",
        )
    return source.modules[0]


def _parse_fragment(text, filename, parse_fn_name):
    """Shared driver for the standalone expression/statement helpers."""
    sink = DiagnosticSink()
    parser = _Parser(
        tokenize(text, filename=filename, sink=sink),
        filename=filename,
        sink=sink,
        eof_line=_source_lines(text),
    )
    try:
        node = getattr(parser, parse_fn_name)()
    except _Recover:
        node = None
    if sink.has_errors:
        _raise_from_sink(sink)
    if not parser._at("eof"):
        raise ParseError(
            "trailing input after %s: %r"
            % (parse_fn_name.replace("parse_", ""), parser._peek().text),
            code="P0209",
        )
    return node


def parse_expression(text, filename="<input>"):
    """Parse a standalone expression (used by tools and tests)."""
    return _parse_fragment(text, filename, "parse_expression")


def parse_statement(text, filename="<input>"):
    """Parse a standalone procedural statement (used by tools and tests)."""
    return _parse_fragment(text, filename, "parse_statement")
