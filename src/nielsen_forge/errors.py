"""Exception hierarchy with stable error codes for the CLI exit status."""

from __future__ import annotations


class ForgeError(Exception):
    """Base class; `code` is the stable CLI exit code for the error family."""

    code = 1


class ConfigError(ForgeError):
    code = 2


class ClosureExceedsCap(ForgeError):
    code = 10


class NotAHomomorphism(ForgeError):
    code = 11


class NotNormal(ForgeError):
    code = 12


class NotPPerfect(ForgeError):
    code = 13


class NotSurjective(ForgeError):
    code = 14


class NotAnAutomorphism(ForgeError):
    code = 15


class ClassNotPreserved(ForgeError):
    code = 16


class RankNotFour(ForgeError):
    code = 20


class FormulaMismatch(ForgeError):
    """Internal consistency failure; signals an implementation bug."""

    code = 21


class InconsistentType(ForgeError):
    """Cusp-type disagreement inside one cusp orbit; never expected."""

    code = 22


class NonIntegralGenus(ForgeError):
    code = 23


class NegativeGenus(ForgeError):
    code = 24


class ClassListEscape(ForgeError):
    """A Q'', braid or automorphism image fell outside the supplied class list."""

    code = 25


class BraidInvariantBroken(ForgeError):
    """A braid move changed the product or the class multiset; never expected."""

    code = 26


class OrderNotPrime(ForgeError):
    """Element order is divisible by p where a p' element is required."""

    code = 30


class MiddleProductNotPrime(ForgeError):
    code = 31


class NotPGroupKernel(ForgeError):
    code = 40


class MultiplePrimeClasses(ForgeError):
    """The p' part of a class preimage splits into several classes."""

    code = 41


class GenusHypothesisFails(ForgeError):
    """Spin closed form does not apply; use the extension invariant."""

    code = 32
