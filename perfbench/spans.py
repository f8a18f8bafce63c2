"""Span recorder for the traced run (--trace 1).

Wrappers around the public functions of each bridgescript layer record
one span per call: a name, a start, an end and the enclosing span.  A
span's self time is its duration minus the time its child spans cover.
Calls and self time are summed per name as the spans close; the spans
themselves are kept in memory, up to a cap, and written out at the end.

Functions that other modules import by name are wrapped where they are
called from (parse_source in interp, tokenize in parser, call_value and
table_get in inbound).  Methods are wrapped on their class, so every
instance and every bound method taken later sees the wrapper; install()
therefore runs before the registry and interpreter are built.  A target
that no longer exists is skipped with a note on stderr and reports zero
calls.
"""

import json
import sys
import time
from array import array

from bridgescript import (convert, inbound, interp, lexer, manifest, nodes,
                          outbound, parser, registry)

# name -> places the function is reached through: (owner, attribute)
TARGETS = {
    "lexer.tokenize": [(parser, "tokenize"), (lexer, "tokenize")],
    "parser.parse_source": [(interp, "parse_source"),
                            (parser, "parse_source")],
    "interp.eval_chunk": [(interp, "eval_chunk")],
    "outbound.proxy_index": [(outbound.OutboundBridge, "proxy_index")],
    "outbound.build_proxy": [(outbound.OutboundBridge, "build_proxy")],
    "outbound.host_new_instance": [
        (outbound.OutboundBridge, "host_new_instance")],
    "outbound.proxy_newindex": [(outbound.OutboundBridge, "proxy_newindex")],
    "convert.to_host": [(convert.Converter, "to_host")],
    "convert.to_script": [(convert.Converter, "to_script")],
    "convert.select_overload": [(convert.Converter, "select_overload")],
    "convert.convert_args": [(convert.Converter, "convert_args")],
    "registry.invoke": [(registry.HostRegistry, "invoke")],
    "registry.call_method": [(registry.HostRegistry, "call_method")],
    "registry.lookup_class": [(registry.HostRegistry, "lookup_class")],
    "registry.instantiate": [(registry.HostRegistry, "instantiate")],
    "registry.get_field": [(registry.HostRegistry, "get_field")],
    "registry.set_field": [(registry.HostRegistry, "set_field")],
    "registry.array_get": [(registry.HostRegistry, "array_get")],
    "registry.array_set": [(registry.HostRegistry, "array_set")],
    "registry.freeze": [(registry.HostRegistry, "freeze")],
    "inbound.wrapper_invoke": [(inbound.InboundBridge, "wrapper_invoke")],
    "inbound.host_export": [(inbound.InboundBridge, "host_export")],
    "objects.call_value": [(inbound, "call_value")],
    "objects.table_get": [(inbound, "table_get")],
    "manifest.register_from_manifest": [
        (manifest, "register_from_manifest")],
}

# Spans recorded under another name than the function they wrap:
# nodes.compile is the first Chunk.code() of a chunk, which compiles it;
# inbound.fallthrough is a registry.call_method made directly from
# inbound.wrapper_invoke, the call on the backing instance.
COMPILE = "nodes.compile"
FALLTHROUGH = "inbound.fallthrough"
OP = "op"

LAYERS = sorted(list(TARGETS) + [COMPILE, FALLTHROUGH])
# Layers that run once per setup rather than per op.
SETUP_LAYERS = ("manifest.register_from_manifest", "registry.freeze")
# Spans kept in memory and written out; later ones are only summed.
SPAN_CAP = 100_000


class Recorder:
    def __init__(self):
        self.names = LAYERS + [OP]
        self.ids = {n: i for i, n in enumerate(self.names)}
        self._patched = []
        self.reset()

    def reset(self) -> None:
        """Zero the sums and drop the kept spans."""
        n = len(self.names)
        self.calls = [0] * n
        self.self_ns = [0] * n
        self.incompatible = 0   # convert.to_host results that failed
        self.viable = 0         # convert.convert_args results that matched
        self.stack = []         # open spans: [name id, start, child ns, slot]
        self.t0 = time.perf_counter_ns()
        self.s_name = array("i")
        self.s_start = array("q")
        self.s_end = array("q")
        self.s_parent = array("i")
        self.total = 0

    def wrap(self, name: str, fn, alt=None):
        """fn recorded as a span called name; alt = (parent name, name)
        records it as the second name when the enclosing span is the
        first."""
        rec = self
        nid = self.ids[name]
        alt_parent, alt_id = (-1, -1) if alt is None else (
            self.ids[alt[0]], self.ids[alt[1]])
        clock = time.perf_counter_ns

        def wrapped(*args, **kw):
            stack = rec.stack
            sid = nid
            parent = -1
            if stack:
                top = stack[-1]
                parent = top[3]
                if top[0] == alt_parent:
                    sid = alt_id
            slot = -1
            if rec.total < SPAN_CAP:
                slot = rec.total
                rec.s_name.append(sid)
                rec.s_start.append(0)
                rec.s_end.append(0)
                rec.s_parent.append(parent)
            rec.total += 1
            frame = [sid, 0, 0, slot]
            stack.append(frame)
            start = frame[1] = clock()
            try:
                return fn(*args, **kw)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                rec.calls[sid] += 1
                rec.self_ns[sid] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                if slot >= 0:
                    rec.s_start[slot] = start - rec.t0
                    rec.s_end[slot] = end - rec.t0
        return wrapped

    # ------------------------------------------------------------ install

    def _patch(self, owner, attr, new) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        for name, places in TARGETS.items():
            found = [(o, a) for o, a in places if hasattr(o, a)]
            if not found:
                print(f"trace: {name} not found, reported as 0 calls",
                      file=sys.stderr)
                continue
            fn = getattr(*found[0])
            if name == "convert.to_host":
                w = self._counting(name, fn, "incompatible",
                                   lambda r: r.__class__.__name__
                                   == "Incompatible")
            elif name == "convert.convert_args":
                w = self._counting(name, fn, "viable", lambda r: r is not None)
            elif name == "registry.call_method":
                w = self.wrap(name, fn,
                              alt=("inbound.wrapper_invoke", FALLTHROUGH))
            else:
                w = self.wrap(name, fn)
            for owner, attr in found:
                self._patch(owner, attr, w)
        self._install_compile()

    def _counting(self, name, fn, counter, hit):
        rec = self

        def counted(*args, **kw):
            r = fn(*args, **kw)
            if hit(r):
                setattr(rec, counter, getattr(rec, counter) + 1)
            return r
        return self.wrap(name, counted)

    def _install_compile(self) -> None:
        chunk_cls = getattr(nodes, "Chunk", None)
        if chunk_cls is None or not hasattr(chunk_cls, "code"):
            print(f"trace: {COMPILE} not found, reported as 0 calls",
                  file=sys.stderr)
            return
        plain = chunk_cls.code
        compiling = self.wrap(COMPILE, plain)

        def code(chunk):
            if getattr(chunk, "_code", None) is None:
                return compiling(chunk)
            return plain(chunk)
        self._patch(chunk_cls, "code", code)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------- output

    def totals(self) -> dict:
        """name -> (calls, self ns) since the last reset."""
        return {n: (self.calls[i], self.self_ns[i])
                for i, n in enumerate(self.names)}

    def write(self, path, meta: dict) -> None:
        kept = len(self.s_name)
        spans = [[self.names[self.s_name[i]], self.s_start[i],
                  self.s_end[i], self.s_parent[i]] for i in range(kept)]
        doc = dict(meta, names=self.names, spans_total=self.total,
                   spans_kept=kept, fields=["name", "start_ns", "end_ns",
                                            "parent"], spans=spans)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f, separators=(",", ":"))
