"""Interpreter: a globals dict, core builtins, and bridge wiring.

The core installs print/type/tostring/dostring.  Attaching a frozen
registry adds the bridge builtins:

  hostNewInstance(name, ...)  construct a host object, returns its proxy
  hostBindClass(name)         class proxy for static fields and methods
  hostExport(t, name)         register a table as an implementation of a
                              host interface or class; returns the table

plus javaNewInstance/javaBindClass/javaExport as aliases for scripts
written against JVM-flavoured hosts.  The aliases are the same function
objects, not copies.
"""

import sys

from .convert import Converter
from .errors import NotFrozen, ScriptRuntimeError
from .inbound import InboundBridge
from .objects import NIL, NativeFunction, render, type_name
from .outbound import OutboundBridge
from .parser import parse_source


def eval_chunk(chunk, globals: dict):
    """Execute a parsed chunk against a globals dict; returns the chunk's
    return values as a list (empty when it just falls off the end).  The
    chunk compiles on first use and keeps its compiled form."""
    try:
        r = chunk.code()(globals)
    except RecursionError:
        # nesting too deep to compile or evaluate outside any call
        raise ScriptRuntimeError("stack overflow") from None
    return [] if not r else r


class Interpreter:
    def __init__(self, registry=None, out=None):
        self.globals: dict = {}
        self.out = out if out is not None else sys.stdout
        self.registry = None
        self.outbound = None
        self.inbound = None
        self.converter = None
        self._install_core()
        if registry is not None:
            self._install_bridge(registry)

    def run(self, source: str) -> list:
        return eval_chunk(parse_source(source), self.globals)

    def define_global(self, name: str, value) -> None:
        self.globals[name] = value

    def global_value(self, name: str):
        return self.globals.get(name, NIL)

    # ----------------------------------------------------------- builtins

    def _install_core(self) -> None:
        def _print(args: list) -> list:
            self.out.write("\t".join(render(a) for a in args) + "\n")
            return []

        def _type(args: list) -> list:
            return [type_name(args[0] if args else NIL)]

        def _tostring(args: list) -> list:
            return [render(args[0] if args else NIL)]

        def _dostring(args: list) -> list:
            src = args[0] if args else NIL
            if src.__class__ is not str:
                raise ScriptRuntimeError(
                    f"dostring expects a string, got {type_name(src)}")
            return eval_chunk(parse_source(src), self.globals)

        self.define_global("print", NativeFunction(_print, "print"))
        self.define_global("type", NativeFunction(_type, "type", type_name))
        self.define_global("tostring",
                           NativeFunction(_tostring, "tostring", render))
        self.define_global("dostring", NativeFunction(_dostring, "dostring"))

    def _install_bridge(self, registry) -> None:
        if not registry.frozen:
            raise NotFrozen("freeze the registry before attaching it")
        self.registry = registry
        outb = self.outbound = OutboundBridge(registry)
        inb = self.inbound = InboundBridge(registry)
        self.converter = Converter(registry, outb, inb)

        def _new(args: list) -> list:
            if not args or args[0].__class__ is not str:
                raise ScriptRuntimeError(
                    "hostNewInstance expects a class name first")
            return [outb.host_new_instance(args[0], args[1:])]

        def _bind(args: list) -> list:
            if not args or args[0].__class__ is not str:
                raise ScriptRuntimeError(
                    "hostBindClass expects a class name")
            return [self.converter.class_proxy(args[0])]

        def _export(args: list) -> list:
            if len(args) < 2 or args[1].__class__ is not str:
                raise ScriptRuntimeError(
                    "hostExport expects a table and a type name")
            inb.host_export(args[0], args[1])
            return [args[0]]

        pairs = (
            ("hostNewInstance", "javaNewInstance", NativeFunction(_new, "hostNewInstance")),
            ("hostBindClass", "javaBindClass", NativeFunction(_bind, "hostBindClass")),
            ("hostExport", "javaExport", NativeFunction(_export, "hostExport")),
        )
        for name, alias, fn in pairs:
            self.define_global(name, fn)
            self.define_global(alias, fn)
