"""Whitelisted trigonometric polynomials for metric and field parameters.

The only admissible expressions are finite sums

    c0 + c1*cos(k.x) + c2*sin(m.x) + ...

with float amplitudes and integer wave vectors over variables x1, x2, ...
Variables are angular: x<i> runs over [0, 2*pi), the i-th coordinate of
the torus (2*pi)^n, so integer wave vectors keep every expression
periodic.  Evaluation takes those coordinates per axis; derivatives are
exact.

Parsing is a small recursive-descent scanner.  Nothing is ever eval'd.
"""

import re
from dataclasses import dataclass

import numpy as np


class ExpressionError(ValueError):
    """Raised for any input outside the trig-polynomial whitelist."""


_TOKEN = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<func>cos|sin)"
    r"|(?P<var>x\d+)"
    r"|(?P<op>[+\-*()]))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ExpressionError(f"unexpected input at: {rest[:20]!r}")
        pos = m.end()
        kind = m.lastgroup
        tokens.append((kind, m.group(kind)))
    return tokens


@dataclass(frozen=True)
class TrigTerm:
    """A single term: coeff * kind(wave . theta), kind 'const'|'cos'|'sin'.

    wave is a tuple of integers indexed from variable x1; 'const' terms
    carry an empty wave.
    """

    coeff: float
    kind: str
    wave: tuple

    def __post_init__(self):
        if self.kind not in ("const", "cos", "sin"):
            raise ExpressionError(f"bad term kind {self.kind!r}")
        if self.kind == "const" and self.wave:
            raise ExpressionError("constant terms carry no wave vector")
        if self.kind != "const" and not any(self.wave):
            raise ExpressionError("trig terms need a nonzero wave vector")


def _canonical(coeff, kind, wave):
    """Strip trailing zeros, fold cos(-k)=cos(k), sin(-k)=-sin(k)."""
    wave = list(wave)
    while wave and wave[-1] == 0:
        wave.pop()
    if kind != "const" and not any(wave):
        # cos(0) = 1, sin(0) = 0
        return TrigTerm(coeff if kind == "cos" else 0.0, "const", ())
    if kind != "const":
        first = next(w for w in wave if w != 0)
        if first < 0:
            wave = [-w for w in wave]
            if kind == "sin":
                coeff = -coeff
    return TrigTerm(coeff, kind, tuple(wave))


class TrigPoly:
    """Immutable sum of trig terms with exact symbolic derivatives."""

    def __init__(self, terms):
        merged = {}
        for t in terms:
            t = _canonical(t.coeff, t.kind, t.wave)
            key = (t.kind, t.wave)
            merged[key] = merged.get(key, 0.0) + t.coeff
        kept = [
            TrigTerm(c, kind, wave)
            for (kind, wave), c in merged.items()
            if c != 0.0
        ]
        kept.sort(key=lambda t: (len(t.wave), t.wave, t.kind))
        self.terms = tuple(kept)

    @property
    def is_zero(self):
        return not self.terms

    @property
    def n_vars(self):
        return max((len(t.wave) for t in self.terms), default=0)

    @property
    def variables(self):
        """The 0-based axes the polynomial depends on, ascending: those
        with a nonzero wave component in some term."""
        return tuple(sorted({i for t in self.terms for i, k in enumerate(t.wave) if k}))

    def __eq__(self, other):
        return isinstance(other, TrigPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def angular_derivative(self, axis):
        """d/d theta_axis, axis 0-based; exact on the term list."""
        out = []
        for t in self.terms:
            if t.kind == "const" or axis >= len(t.wave) or t.wave[axis] == 0:
                continue
            k = t.wave[axis]
            if t.kind == "cos":
                out.append(TrigTerm(-t.coeff * k, "sin", t.wave))
            else:
                out.append(TrigTerm(t.coeff * k, "cos", t.wave))
        return TrigPoly(out)

    def evaluate(self, thetas):
        """Evaluate on broadcastable angular-coordinate arrays."""
        if len(thetas) < self.n_vars:
            raise ExpressionError(
                f"expression uses x{self.n_vars} but only "
                f"{len(thetas)} coordinates were supplied"
            )
        acc = 0.0
        for t in self.terms:
            if t.kind == "const":
                acc = acc + t.coeff
                continue
            phase = 0.0
            for i, k in enumerate(t.wave):
                if k:
                    phase = phase + k * thetas[i]
            acc = acc + t.coeff * (np.cos(phase) if t.kind == "cos" else np.sin(phase))
        if np.isscalar(acc):
            shape = np.broadcast_shapes(*(np.shape(th) for th in thetas)) if thetas else ()
            return np.full(shape, float(acc))
        return acc

    def to_text(self):
        """Canonical serialization; parse(to_text()) round-trips exactly."""
        if not self.terms:
            return "0"
        parts = []
        for t in self.terms:
            mag = repr(abs(t.coeff))
            if t.kind == "const":
                body = mag
            else:
                arg_parts = []
                for i, k in enumerate(t.wave):
                    if k == 0:
                        continue
                    name = f"x{i + 1}"
                    piece = name if abs(k) == 1 else f"{abs(k)}*{name}"
                    arg_parts.append(("-" if k < 0 else "+", piece))
                arg = arg_parts[0][1] if arg_parts[0][0] == "+" else "-" + arg_parts[0][1]
                for sign, piece in arg_parts[1:]:
                    arg += sign + piece
                body = f"{mag}*{t.kind}({arg})"
            sign = "-" if t.coeff < 0 else "+"
            parts.append((sign, body))
        text = parts[0][1] if parts[0][0] == "+" else "-" + parts[0][1]
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self):
        return f"TrigPoly({self.to_text()})"


class _Parser:
    def __init__(self, tokens, text):
        self.tokens = tokens
        self.pos = 0
        self.text = text

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self, kind=None, value=None):
        got_kind, got_val = self.peek()
        if got_kind is None:
            raise ExpressionError(f"unexpected end of expression: {self.text!r}")
        if kind is not None and got_kind != kind:
            raise ExpressionError(f"expected {kind}, got {got_val!r} in {self.text!r}")
        if value is not None and got_val != value:
            raise ExpressionError(f"expected {value!r}, got {got_val!r} in {self.text!r}")
        self.pos += 1
        return got_val

    def parse_poly(self):
        terms = []
        sign = 1.0
        kind, val = self.peek()
        if kind == "op" and val in "+-":
            self.take()
            sign = -1.0 if val == "-" else 1.0
        terms.extend(self.parse_term(sign))
        while True:
            kind, val = self.peek()
            if kind is None:
                break
            if kind != "op" or val not in "+-":
                raise ExpressionError(f"expected + or - before {val!r} in {self.text!r}")
            self.take()
            terms.extend(self.parse_term(-1.0 if val == "-" else 1.0))
        return TrigPoly(terms)

    def parse_term(self, sign):
        kind, val = self.peek()
        if kind == "num":
            self.take()
            coeff = sign * float(val)
            kind, val = self.peek()
            if kind == "op" and val == "*":
                self.take()
                f, wave = self.parse_trig()
                return [TrigTerm(coeff, f, wave)]
            return [TrigTerm(coeff, "const", ())]
        if kind == "func":
            f, wave = self.parse_trig()
            return [TrigTerm(sign, f, wave)]
        raise ExpressionError(f"expected a number or cos/sin, got {val!r} in {self.text!r}")

    def parse_trig(self):
        f = self.take("func")
        self.take("op", "(")
        wave = {}
        sign = 1
        kind, val = self.peek()
        if kind == "op" and val in "+-":
            self.take()
            sign = -1 if val == "-" else 1
        self.parse_wave_atom(wave, sign)
        while True:
            kind, val = self.peek()
            if kind == "op" and val == ")":
                self.take()
                break
            if kind == "op" and val in "+-":
                self.take()
                self.parse_wave_atom(wave, -1 if val == "-" else 1)
            else:
                raise ExpressionError(f"expected + - or ) inside {f}(...) in {self.text!r}")
        if not wave:
            raise ExpressionError(f"empty wave vector in {self.text!r}")
        n = max(wave)
        return f, tuple(wave.get(i, 0) for i in range(1, n + 1))

    def parse_wave_atom(self, wave, sign):
        kind, val = self.peek()
        if kind == "num":
            if not val.isdigit():
                raise ExpressionError(f"wave components must be integers: {val!r}")
            self.take()
            mult = sign * int(val)
            self.take("op", "*")
            var = self.take("var")
        elif kind == "var":
            var = self.take()
            mult = sign
        else:
            raise ExpressionError(f"expected k*x<i> or x<i>, got {val!r} in {self.text!r}")
        idx = int(var[1:])
        if idx < 1:
            raise ExpressionError(f"variables are numbered from x1: {var!r}")
        wave[idx] = wave.get(idx, 0) + mult


def parse_trig_poly(text):
    """Parse a whitelisted trig polynomial; raise ExpressionError otherwise."""
    if not isinstance(text, str):
        raise ExpressionError("expression must be a string")
    tokens = _tokenize(text)
    if not tokens:
        raise ExpressionError("empty expression")
    return _Parser(tokens, text).parse_poly()
