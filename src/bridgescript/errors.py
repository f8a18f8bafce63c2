"""Error types shared across the interpreter and the host bridge.

Script-side errors (lexing, parsing, evaluation) carry a source line when
one is known.  Host-side errors carry only a message.  Everything derives
from BridgeScriptError so embedders and the CLI can catch one base type.
"""


class BridgeScriptError(Exception):
    """Base class for every error raised by this package."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.message = message
        self.line = line

    @property
    def kind(self) -> str:
        return type(self).__name__

    def __str__(self) -> str:
        if self.line is not None:
            return f"{self.kind} (line {self.line}): {self.message}"
        return f"{self.kind}: {self.message}"


# ---------------------------------------------------------------- script side

class LexError(BridgeScriptError):
    pass


class ParseError(BridgeScriptError):
    def __init__(self, line: int | None, expected: str, found: str):
        super().__init__(f"expected {expected}, found {found}", line)
        self.expected = expected
        self.found = found


class ScriptRuntimeError(BridgeScriptError):
    """Raised during evaluation: bad arithmetic, bad index targets, and so on."""


class NotCallable(ScriptRuntimeError):
    pass


class KeyIsNil(ScriptRuntimeError):
    pass


# -------------------------------------------------------------- registry side

class RegistryError(BridgeScriptError):
    pass


class DuplicateClass(RegistryError):
    pass


class UnknownBase(RegistryError):
    pass


class FieldMethodNameCollision(RegistryError):
    pass


class DescriptorError(RegistryError):
    """Structurally invalid descriptor: interface with fields, duplicate
    overload signatures, mixed static and instance overloads of one name."""


class RegistryFrozen(RegistryError):
    pass


class NotFrozen(RegistryError):
    pass


class ClassNotFound(RegistryError):
    pass


class InterfaceNotInstantiable(RegistryError):
    pass


class NoSuchField(RegistryError):
    pass


class TypeMismatch(RegistryError):
    pass


class IndexOutOfBounds(RegistryError):
    pass


class HostException(RegistryError):
    """A native method body raised; the original error text is preserved."""


# ---------------------------------------------------------------- bridge side

class NoMatch(BridgeScriptError):
    pass


class Ambiguous(BridgeScriptError):
    def __init__(self, message: str, tied: tuple):
        super().__init__(message)
        self.tied = tied  # the candidates sharing the best score


class NoSuchMember(BridgeScriptError):
    def __init__(self, class_name: str, member: str):
        super().__init__(f"{class_name!r} has no member {member!r}")
        self.class_name = class_name
        self.member = member


class ReceiverMismatch(BridgeScriptError):
    pass


class ReservedField(BridgeScriptError):
    pass


class ProxyNotExportable(BridgeScriptError):
    pass


class NoDefaultConstructor(BridgeScriptError):
    pass


class UnimplementedMethod(BridgeScriptError):
    pass


class ReturnTypeMismatch(BridgeScriptError):
    pass


# ------------------------------------------------------------------ tooling

class ManifestError(BridgeScriptError):
    pass


class IterationsTooSmall(BridgeScriptError):
    pass


class BenchmarkError(BridgeScriptError):
    pass
