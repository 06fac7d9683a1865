"""Recursive-descent parser for the space-expression grammar.

Grammar (whitespace-insensitive):

    expr   := atom
            | 'W' '(' expr ',' global ')'
            | 'F' '(' expr ')' | 'Finv' '(' expr ')'
            | 'Mod' '(' expr ')' | 'Dual' '(' expr ')'
            | '(' expr ('opi' | 'oeps') expr ')'
    atom   := 'L' p weight? | 'Linf' weight? | 'Linf0' weight?
            | 'C0' weight? | 'FL' p weight? | 'Q' snum
            | 'M' p ',' p ('[' snum ',' snum ']' | '[' 'rad' snum ']')?
    global := 'l' p weight? | 'linf' weight? | 'linf0' weight?
    weight := '[' snum ']'
    p      := unsigned number; snum := optionally signed number

Errors carry the character offset at which parsing failed.
"""

from __future__ import annotations

import math
import re

from .ast import (
    Amalgam,
    C0,
    Dual,
    FL,
    FLinv,
    INF,
    INF0,
    Lp,
    Mod,
    Mpq,
    Qs,
    TensorEps,
    TensorPi,
    radial_weight,
    tensor_weight,
)

__all__ = ["parse_space", "SpaceSyntaxError"]


class SpaceSyntaxError(ValueError):
    """Parse failure with the offending character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


def _checked(pos: int, make, *args):
    """``make(*args)``, with a constructor's ValueError (a bad exponent)
    raised as a syntax error at the atom's offset ``pos``."""
    try:
        return make(*args)
    except ValueError as err:
        raise SpaceSyntaxError(str(err), pos) from None


_TOKEN = re.compile(r"\s*(?:(?P<ident>[A-Za-z]+)|(?P<num>\d+(?:\.\d+)?)|(?P<punct>[()\[\],-]))")


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if m is None or m.end() == pos:
                stripped = text[pos:].lstrip()
                at = len(text) - len(stripped)
                raise SpaceSyntaxError(f"unexpected character {text[at]!r}", at)
            kind = m.lastgroup
            self.tokens.append((kind, m.group(kind), m.start(kind)))
            pos = m.end()
        self.tokens.append(("eof", "", len(text)))
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_punct(self, ch: str):
        kind, val, pos = self.peek()
        if kind != "punct" or val != ch:
            raise SpaceSyntaxError(f"expected {ch!r}", pos)
        return self.next()


class _Parser:
    def __init__(self, text: str):
        self.lex = _Lexer(text)

    def parse(self):
        e = self.expr()
        kind, _, pos = self.lex.peek()
        if kind != "eof":
            raise SpaceSyntaxError("trailing input", pos)
        return e

    # -- helpers -----------------------------------------------------------

    def number(self) -> float:
        kind, val, pos = self.lex.peek()
        if kind != "num":
            raise SpaceSyntaxError("expected a number", pos)
        self.lex.next()
        return float(val)

    def signed_number(self) -> float:
        kind, val, pos = self.lex.peek()
        sign = 1.0
        if kind == "punct" and val == "-":
            self.lex.next()
            sign = -1.0
        return sign * self.number()

    def opt_weight(self) -> float:
        kind, val, _ = self.lex.peek()
        if kind == "punct" and val == "[":
            self.lex.next()
            s = self.signed_number()
            self.lex.expect_punct("]")
            return s
        return 0.0

    def exponent_after(self, ident_tail: str, pos: int):
        """Resolve 'inf' / 'inf0' / numeric exponent spellings."""
        if ident_tail == "":
            return self.number()
        if ident_tail == "inf":
            kind, val, _ = self.lex.peek()
            if kind == "num" and val == "0":
                self.lex.next()
                return INF0
            return INF
        raise SpaceSyntaxError(f"unknown exponent token {ident_tail!r}", pos)

    # -- grammar -----------------------------------------------------------

    def expr(self):
        kind, val, pos = self.lex.peek()
        if kind == "punct" and val == "(":
            self.lex.next()
            a = self.expr()
            okind, oval, opos = self.lex.next()
            if okind != "ident" or oval not in ("opi", "oeps"):
                raise SpaceSyntaxError("expected 'opi' or 'oeps'", opos)
            b = self.expr()
            self.lex.expect_punct(")")
            return TensorPi(a, b) if oval == "opi" else TensorEps(a, b)
        if kind != "ident":
            raise SpaceSyntaxError("expected a space expression", pos)
        self.lex.next()
        if val in ("W", "F", "Finv", "Mod", "Dual"):
            self.lex.expect_punct("(")
            inner = self.expr()
            if val == "W":
                self.lex.expect_punct(",")
                amalgam = self.global_component(inner)
                self.lex.expect_punct(")")
                return amalgam
            self.lex.expect_punct(")")
            return {"F": FL, "Finv": FLinv, "Mod": Mod, "Dual": Dual}[val](inner)
        return self.atom(val, pos)

    def atom(self, ident: str, pos: int):
        if ident == "L" or ident == "Linf":
            p = self.exponent_after(ident[1:], pos)
            return _checked(pos, Lp, p, self.opt_weight())
        if ident == "C":
            kind, val, npos = self.lex.peek()
            if kind != "num" or val != "0":
                raise SpaceSyntaxError("expected 'C0'", npos)
            self.lex.next()
            return C0(self.opt_weight())
        if ident == "FL" or ident == "FLinf":
            p = self.exponent_after(ident[2:], pos)
            return FL(_checked(pos, Lp, p, self.opt_weight()))
        if ident == "M":
            p = self.number()
            self.lex.expect_punct(",")
            q = self.number()
            kind, val, _ = self.lex.peek()
            if kind == "punct" and val == "[":
                self.lex.next()
                kind2, val2, _ = self.lex.peek()
                if kind2 == "ident" and val2 == "rad":
                    self.lex.next()
                    s = self.signed_number()
                    self.lex.expect_punct("]")
                    return _checked(pos, Mpq, p, q, radial_weight(s))
                s1 = self.signed_number()
                self.lex.expect_punct(",")
                s2 = self.signed_number()
                self.lex.expect_punct("]")
                return _checked(pos, Mpq, p, q, tensor_weight(s1, s2))
            return _checked(pos, Mpq, p, q)
        if ident == "Q":
            return Qs(self.signed_number())
        raise SpaceSyntaxError(f"unknown token {ident!r}", pos)

    def global_component(self, inner) -> Amalgam:
        """The amalgam W(inner, l<p>[s]) whose global component comes next."""
        kind, val, pos = self.lex.next()
        if kind != "ident" or not val.startswith("l"):
            raise SpaceSyntaxError("expected a global component l<p>/linf/linf0", pos)
        p = self.exponent_after(val[1:], pos)
        return _checked(pos, Amalgam, inner, p, self.opt_weight())


def parse_space(text: str):
    """Parse a space expression; raises SpaceSyntaxError with a position."""
    return _Parser(text).parse()
