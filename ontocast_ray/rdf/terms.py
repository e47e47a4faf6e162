"""RDF term model: lightweight, hashable, Arrow-friendly.

Replaces the reference's rdflib ``URIRef``/``Literal`` (not available here and
deliberately not a dependency — triples cross stage boundaries as Arrow
columns, these objects exist only inside per-chunk/per-doc Python kernels).

Like rdflib, terms subclass ``str`` so the lexical form is the string value,
but equality is type-aware: ``URI("x") != Literal("x")``, ``URI("x") != "x"``
and literals compare on (value, datatype, lang). Every term hashes with the
native ``str`` hash (no Python call per dict or set probe): terms that share a
lexical form only collide, and ``__eq__`` tells them apart. No output depends
on the hash value, which ``str`` already randomizes per process.
"""

from __future__ import annotations

from typing import Optional


class URI(str):
    """An IRI term."""

    __slots__ = ()

    def __eq__(self, other) -> bool:
        if isinstance(other, URI):
            return str.__eq__(self, other)
        return NotImplemented if not isinstance(other, str) else False

    def __ne__(self, other) -> bool:
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    __hash__ = str.__hash__

    def __repr__(self) -> str:  # pragma: no cover
        return f"URI({str.__repr__(self)})"


class BNode(str):
    """A blank node (label-identified)."""

    __slots__ = ()

    def __eq__(self, other) -> bool:
        if isinstance(other, BNode):
            return str.__eq__(self, other)
        return NotImplemented if not isinstance(other, str) else False

    def __ne__(self, other) -> bool:
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    __hash__ = str.__hash__

    def __repr__(self) -> str:  # pragma: no cover
        return f"BNode({str.__repr__(self)})"


class Literal(str):
    """A literal term with optional datatype IRI and language tag."""

    __slots__ = ("datatype", "lang")

    datatype: Optional[str]
    lang: Optional[str]

    def __new__(cls, value: str, datatype: Optional[str] = None, lang: Optional[str] = None):
        obj = str.__new__(cls, value)
        obj.datatype = datatype or None
        obj.lang = lang or None
        return obj

    def __eq__(self, other) -> bool:
        if isinstance(other, Literal):
            return (
                str.__eq__(self, other)
                and self.datatype == other.datatype
                and self.lang == other.lang
            )
        return NotImplemented if not isinstance(other, str) else False

    def __ne__(self, other) -> bool:
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    __hash__ = str.__hash__

    def __repr__(self) -> str:  # pragma: no cover
        return f"Literal({str.__repr__(self)}, datatype={self.datatype}, lang={self.lang})"
