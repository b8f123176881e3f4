"""The parser: text to types, untyped terms and annotated terms.

Concrete grammar (whitespace-insensitive, application left-associative,
lambda bodies extend right, a postfix ``[...]`` wrapper attaches to the
term on its left before application grouping):

    type    := base | setty "->" type | "(" type ")"      right-assoc
    base    := lowercase identifier
    setty   := "{" type ("," type)* "}" | base | "(" type ")"
    uterm   := var | "\\" var "." uterm | uterm uterm | "(" uterm ")"
    aterm   := var "^" atype | "\\" var ":" setty "." aterm
             | aterm aarg | aterm "[" aset "]" | "(" aterm ")"
    atype   := base | "(" type ")"
    aarg    := "{" aterm ("," aterm)* "}" | var "^" atype | "(" aterm ")"
    aset    := aterm ("," aterm)*

One loop reads types and one terms, each keeping its open brackets on a
list.  Within one text each base is built once, and each annotation in
parentheses and each binder set-type once per span of tokens.
"""

import re
from itertools import islice

from .errors import ParseError
from .syntax import (App, Arrow, Base, BoundVar, Lam, SetTerm, SetType, UApp, UBoundVar, ULam,
                     UVar, Var, Wrap)

# A token, or (as the empty string) a character that starts none.
_TOKEN = re.compile(r"(->|[a-z][A-Za-z0-9_']*|[\\.:,^(){}\[\]])|\S")
_CLOSING = {"(": ")", "{": "}", "[": "]"}


def read(text: str, kind: str, as_set: bool):
    """What `syntax.parse` (or, with as_set, `parse_set_type`) returns."""
    tokens = _TOKEN.findall(text)
    if "" in tokens:
        _error(text, tokens.index(""))
    tokens.append("")  # end marker
    if kind not in ("type", "untyped", "annotated"):
        raise ValueError(f"unknown parse kind {kind!r}")
    result, i = (_read_type(text, tokens, 0, as_set, {}) if kind == "type"
                 else _read_term(text, tokens, kind == "annotated"))
    if tokens[i]:
        _error(text, i, f"trailing input {tokens[i]!r}")
    return result


def _error(text: str, i: int, message: str | None = None):
    """Raise a ParseError at token i; with no message, token i starts none."""
    found = next(islice(_TOKEN.finditer(text), i, None), None)
    offset = found.start() if found else len(text)
    line = text.count("\n", 0, offset) + 1
    column = offset - text.rfind("\n", 0, offset)
    raise ParseError(message or f"unexpected character {text[offset]!r}", line, column)


def _expect(text: str, tokens: list[str], i: int, token: str = "") -> int:
    """The index after token i, which must be `token` (with none, a name)."""
    if tokens[i] != token if token else not tokens[i][:1].isalpha():
        _error(text, i, f"expected {repr(token) if token else 'identifier'}, "
                        f"found {tokens[i] or 'end of input'!r}")
    return i + 1


def _base(text: str, tokens: list[str], i: int, bases: dict) -> Base:
    """The base token i names, one object per name in `bases` (checked once)."""
    name = tokens[i]
    return bases.get(name) or bases.setdefault(name, Base(tokens[_expect(text, tokens, i) - 1]))


def _read_type(text: str, tokens: list[str], i: int, as_set: bool, bases: dict):
    """(type, index after it) of the arrow chain of atoms at token i; with
    as_set, a set-type: a braced set not followed by "->" is the set, any
    other type the set of that one type.  `stack` holds each open bracket,
    the domains of the chain around it and the types read in it."""
    stack: list = []
    domains: list[SetType] = []  # the atoms before each "->" of the chain read
    while True:
        if tokens[i] == "(" or tokens[i] == "{":
            stack.append((tokens[i], domains, []))
            domains, i = [], i + 1
            continue
        atom, i = _base(text, tokens, i, bases), i + 1
        while True:  # after an atom: go on with its chain, or end the chain and its bracket
            if tokens[i] == "->":
                domains.append(atom if type(atom) is SetType else SetType((atom,)))
                i += 1
                break
            if type(atom) is SetType:
                if as_set and not stack and not domains:
                    return atom, i
                if len(atom.elements) != 1:
                    _error(text, i, "a braced set of types must be followed by ->")
                atom = atom.elements[0]
            for domain in reversed(domains):
                atom = Arrow(domain, atom)
            if not stack:
                return (SetType((atom,)) if as_set else atom), i
            opening, domains, elements = stack[-1]
            elements.append(atom)
            if opening == "{" and tokens[i] == ",":
                domains, i = [], i + 1
                break
            i = _expect(text, tokens, i, _CLOSING[opening])
            stack.pop()
            atom = elements[0] if opening == "(" else SetType.of(elements)


def _interned(text: str, tokens: list[str], start: int, closing: str, spans: dict, bases: dict):
    """(type, index after `closing`) of the type at token start, a set-type
    when closing is "."; one object per span of tokens, in `spans`.  The
    span is guessed to end at the first `closing` that no "(" leaves open:
    a span's tokens decide how it parses, so a wrong guess finds nothing."""
    end = nested = 0
    for end in range(start, len(tokens) - 1):
        if tokens[end] == closing and not nested:
            break
        nested += (tokens[end] == "(") - (tokens[end] == ")")
    found = spans.get(tuple(tokens[start:end + 1]))
    if found is None:
        found, end = _read_type(text, tokens, start, closing == ".", bases)
        _expect(text, tokens, end, closing)
        spans[tuple(tokens[start:end + 1])] = found
    return found, end + 1


def _read_term(text: str, tokens: list[str], typed: bool):
    """(term, index after it) at the start of tokens, annotated when typed.
    `bound` maps a name to the depths of the binders in scope that bind
    it, innermost last; `stack` holds each open bracket, the binders and
    the spine of the term around it and the terms read in it."""
    i = depth = 0
    bases, spans, bound, stack = {}, {}, {}, []  # bases: the bases read, by name
    while True:  # a term starts at token i
        binders = []
        while tokens[i] == "\\":
            name = tokens[i + 1]
            i = _expect(text, tokens, _expect(text, tokens, i + 1), ":" if typed else ".")
            binder, i = _interned(text, tokens, i, ".", spans, bases) if typed else (None, i)
            binders.append((name, binder))
            bound.setdefault(name, []).append(depth)
            depth += 1
        term = None
        while True:
            token = tokens[i]
            if token == "(" or typed and term is not None and (token == "{" or token == "["):
                stack.append((token, binders, term, []))
                i += 1
                break
            if term is None or token[:1].isalpha():
                depths = bound.get(token)
                i = _expect(text, tokens, i)
                if typed:
                    i = _expect(text, tokens, i, "^")
                    annot, i = (_base(text, tokens, i, bases), i + 1) if tokens[i] != "(" else (
                        _interned(text, tokens, i + 1, ")", spans, bases))
                    atom = BoundVar(depth - 1 - depths[-1], annot) if depths else Var(token, annot)
                else:
                    atom = UBoundVar(depth - 1 - depths[-1]) if depths else UVar(token)
            else:  # the term ends: close its binders, then the bracket around it
                for name, binder in reversed(binders):
                    bound[name].pop()
                    term = Lam(name, binder, term) if typed else ULam(name, term)
                depth -= len(binders)
                if not stack:
                    return term, i
                opening, binders, atom, elements = stack[-1]
                elements.append(term)
                if opening != "(" and token == ",":
                    i += 1
                    break
                i = _expect(text, tokens, i, _CLOSING[opening])
                stack.pop()
                if opening != "(":
                    term = (App if opening == "{" else Wrap)(atom, SetTerm.of(elements))
                    continue
                term, atom = atom, term  # the term in parentheses is an argument
            term = (atom if term is None else
                    App(term, SetTerm((atom,))) if typed else UApp(term, atom))
