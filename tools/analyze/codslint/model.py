"""The code model codslint's checks run against.

One `CodeIndex` covers the whole analysis scope (every TU in the compilation
database plus the project headers they include). Per file it builds a scope
tree (namespaces, classes, functions, blocks) from the token stream; across
files it indexes classes (fields with canonical types and initializers,
methods with return types, bases), free/member function definitions (with
their call sites, local declarations, scoped-guard extents and range-for
loops) and type aliases. On top of that it resolves:

  * canonical types through `using X = Y` / `typedef` chains,
  * receiver types of member calls (`space_->dart().record(...)` resolves
    through field types and method return types to `cods::HybridDart`),
  * mutex *names* ("cods.cont") from guard expressions via field
    initializers (`Mutex cont_mutex_{"cods.cont"}`).

This is deliberately not a full C++ frontend: templates are not
instantiated and overload resolution is name-based. Each check documents
the approximations it tolerates; anything unresolvable degrades to "no
finding" plus (with --verbose) a note, never to a crash.
"""

from __future__ import annotations

import dataclasses
import pathlib
from typing import Optional

from . import lexer

KEYWORDS = {
    "alignas", "alignof", "auto", "bool", "break", "case", "catch", "char",
    "class", "const", "consteval", "constexpr", "constinit", "continue",
    "decltype", "default", "delete", "do", "double", "else", "enum",
    "explicit", "extern", "false", "final", "float", "for", "friend", "goto",
    "if", "inline", "int", "long", "mutable", "namespace", "new", "noexcept",
    "nullptr", "operator", "override", "private", "protected", "public",
    "register", "requires", "return", "short", "signed", "sizeof", "static",
    "struct", "switch", "template", "this", "throw", "true", "try", "typedef",
    "typeid", "typename", "union", "unsigned", "using", "virtual", "void",
    "volatile", "while",
}

CONTROL_KEYWORDS = {"if", "for", "while", "switch", "catch"}

# Scoped-guard types of the sync layer (bare names; the canonicalizer strips
# the cods:: qualification). std guards are banned by the blocking check,
# but the extractor still understands them so bait files exercise the same
# path.
GUARD_TYPES = {
    "MutexLock": "exclusive",
    "WriterLock": "exclusive",
    "ReaderLock": "shared",
    "std::lock_guard": "exclusive",
    "std::scoped_lock": "exclusive",
    "std::unique_lock": "exclusive",
    "std::shared_lock": "shared",
}

MUTEX_TYPES = {"Mutex", "SharedMutex", "std::mutex", "std::shared_mutex"}


@dataclasses.dataclass
class CallSite:
    name: str                     # bare callee name
    qual: str                     # written qualification ("std::this_thread")
    recv: list[lexer.Token]       # receiver expression tokens ([] = none)
    tok: int                      # index of the callee-name token
    line: int
    file: str
    arg_range: tuple[int, int]    # token span of the ( ... ) argument list


@dataclasses.dataclass
class GuardScope:
    guard_type: str               # MutexLock / ReaderLock / ...
    mutex_expr: list[lexer.Token]
    lock_name: Optional[str]      # resolved registry name, e.g. "cods.cont"
    decl_tok: int
    end_tok: int                  # index of the closing } of the guard's block
    line: int
    file: str


@dataclasses.dataclass
class RangeFor:
    seq: list[lexer.Token]        # the sequence expression tokens
    line: int
    file: str
    body_range: tuple[int, int]


@dataclasses.dataclass
class LocalDecl:
    name: str
    type_text: str                # canonical-ish declared type
    tok: int
    line: int


@dataclasses.dataclass
class FunctionDef:
    qualname: str                 # namespaces::Class::name
    name: str
    cls: Optional[str]            # defining class qualname (None = free)
    file: str
    line: int
    body_range: tuple[int, int]
    calls: list[CallSite] = dataclasses.field(default_factory=list)
    guards: list[GuardScope] = dataclasses.field(default_factory=list)
    range_fors: list[RangeFor] = dataclasses.field(default_factory=list)
    decls: list[LocalDecl] = dataclasses.field(default_factory=list)
    ctor_decls: list[tuple[str, int, int]] = dataclasses.field(
        default_factory=list)  # (class type, tok, line): implicit ctor calls

    def decl_type(self, name: str, before_tok: int) -> Optional[str]:
        best = None
        for d in self.decls:
            if d.name == name and d.tok <= before_tok:
                best = d.type_text
        return best

    def guards_at(self, tok: int) -> list[GuardScope]:
        return [g for g in self.guards if g.decl_tok < tok <= g.end_tok]


@dataclasses.dataclass
class Field:
    name: str
    type_text: str
    init_string: Optional[str]    # first string literal of the initializer
    line: int


@dataclasses.dataclass
class Method:
    name: str
    ret_type: str
    line: int


@dataclasses.dataclass
class ClassInfo:
    qualname: str
    name: str
    file: str
    line: int
    bases: list[str] = dataclasses.field(default_factory=list)
    fields: dict[str, Field] = dataclasses.field(default_factory=dict)
    methods: dict[str, Method] = dataclasses.field(default_factory=dict)


class CodeIndex:
    def __init__(self) -> None:
        self.files: dict[str, lexer.LexedFile] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.classes_by_name: dict[str, list[str]] = {}
        self.functions: dict[str, list[FunctionDef]] = {}   # by qualname
        self.functions_by_name: dict[str, list[FunctionDef]] = {}
        self.aliases: dict[str, str] = {}
        self.notes: list[str] = []

    # -- construction ------------------------------------------------------

    def add_file(self, path: pathlib.Path, text: Optional[str] = None) -> None:
        key = str(path)
        if key in self.files:
            return
        lf = lexer.lex(key, text)
        self.files[key] = lf
        _Parser(self, lf).parse()

    def finish(self) -> None:
        """Resolve what needs the whole index: guard lock names."""
        for defs in self.functions.values():
            for fn in defs:
                for g in fn.guards:
                    if g.lock_name is None:
                        g.lock_name = self.resolve_lock_name(
                            g.mutex_expr, fn, g.decl_tok)

    # -- lookups -----------------------------------------------------------

    def find_class(self, name: str,
                   context: Optional[str] = None) -> Optional[ClassInfo]:
        name = self.canon_type_name(name)
        bare = name.split("<")[0].rsplit("::", 1)[-1]
        candidates = self.classes_by_name.get(bare, [])
        if not candidates:
            return None
        if context:
            # Prefer a class whose qualname shares the context's namespace.
            ns = context.rsplit("::", 1)[0] if "::" in context else ""
            for q in candidates:
                if q.rsplit("::", 1)[0] == ns:
                    return self.classes[q]
        for q in candidates:
            if q == name or q.endswith("::" + name):
                return self.classes[q]
        return self.classes[candidates[0]]

    def class_field(self, cls: Optional[ClassInfo],
                    name: str) -> Optional[Field]:
        seen = set()
        while cls is not None and cls.qualname not in seen:
            seen.add(cls.qualname)
            if name in cls.fields:
                return cls.fields[name]
            cls = self.find_class(cls.bases[0]) if cls.bases else None
        return None

    def class_method(self, cls: Optional[ClassInfo],
                     name: str) -> Optional[Method]:
        seen = set()
        while cls is not None and cls.qualname not in seen:
            seen.add(cls.qualname)
            if name in cls.methods:
                return cls.methods[name]
            cls = self.find_class(cls.bases[0]) if cls.bases else None
        return None

    def derived_classes(self, base_qual: str) -> list[ClassInfo]:
        base_bare = base_qual.rsplit("::", 1)[-1]
        out = []
        for info in self.classes.values():
            for b in info.bases:
                if b.split("<")[0].rsplit("::", 1)[-1] == base_bare:
                    out.append(info)
        return out

    # -- type machinery ----------------------------------------------------

    def canon_type_name(self, text: str) -> str:
        for _ in range(8):
            replaced = self.aliases.get(text)
            if replaced is None:
                replaced = self.aliases.get(text.rsplit("::", 1)[-1])
            if replaced is None or replaced == text:
                break
            text = replaced
        return text

    def type_head(self, text: str) -> str:
        """Canonical outer type: alias-resolved, template args stripped."""
        return self.canon_type_name(text).split("<")[0]

    def resolve_expr_type(self, toks: list[lexer.Token], fn: FunctionDef,
                          at_tok: int) -> Optional[str]:
        """Canonical type of a member-access chain like `space_->dart()` or
        `shard.mutex` or `this`. Returns the canonical type text or None."""
        i = 0
        n = len(toks)
        # Strip leading dereference / address-of.
        while i < n and toks[i].kind == "punct" and toks[i].text in "*&(":
            i += 1
        if i >= n:
            return None
        cur_type: Optional[str] = None
        cls = self.find_class(fn.cls) if fn.cls else None
        head = toks[i]
        if head.text == "this":
            cur_type = fn.cls
            i += 1
        elif head.kind == "ident":
            name = head.text
            i += 1
            # qualified name? consume A::B chains as a type/namespace ref.
            while i + 1 < n and toks[i].text == "::" and \
                    toks[i + 1].kind == "ident":
                name += "::" + toks[i + 1].text
                i += 2
            local = fn.decl_type(name, at_tok)
            if local is not None:
                cur_type = local
            else:
                field = self.class_field(cls, name)
                if field is not None:
                    cur_type = field.type_text
                else:
                    method = self.class_method(cls, name) \
                        if i < n and toks[i].text == "(" else None
                    if method is not None:
                        cur_type = method.ret_type
                    else:
                        cur_type = name  # maybe a type/namespace (static call)
        else:
            return None
        # Walk the remaining chain.
        while i < n and cur_type is not None:
            t = toks[i]
            if t.text == "(" or t.text == "[":
                depth = 0
                while i < n:
                    if toks[i].text in "([":
                        depth += 1
                    elif toks[i].text in ")]":
                        depth -= 1
                        if depth == 0:
                            break
                    i += 1
                i += 1
                continue
            if t.text in (".", "->") and i + 1 < n:
                member = toks[i + 1].text
                # The function's context makes a nested type of its own
                # class win over a same-named one elsewhere (two classes
                # each with a nested `Slot`), whatever the parse order.
                owner = self.find_class(cur_type, fn.qualname)
                field = self.class_field(owner, member)
                if field is not None:
                    cur_type = field.type_text
                else:
                    method = self.class_method(owner, member)
                    cur_type = method.ret_type if method else None
                i += 2
                continue
            i += 1
        if cur_type is None:
            return None
        return self.canon_type_name(_strip_type(cur_type))

    def resolve_receiver_class(self, call: CallSite,
                               fn: FunctionDef) -> Optional[str]:
        """Canonical class qualname of a member call's receiver, or the
        enclosing class for unqualified calls that match a member."""
        if call.recv:
            t = self.resolve_expr_type(call.recv, fn, call.tok)
            if t is None:
                return None
            info = self.find_class(t, fn.qualname)
            return info.qualname if info else self.type_head(t)
        if call.qual:
            # Static/qualified call: Class::method.
            info = self.find_class(call.qual, fn.qualname)
            if info and call.name in info.methods:
                return info.qualname
            return None
        if fn.cls:
            info = self.find_class(fn.cls)
            if self.class_method(info, call.name) is not None:
                return info.qualname if info else fn.cls
        return None

    def resolve_lock_name(self, expr: list[lexer.Token], fn: FunctionDef,
                          at_tok: Optional[int] = None) -> Optional[str]:
        """Registry name of the mutex a guard expression denotes, from the
        declaration initializer: Mutex cont_mutex_{"cods.cont"}.
        `at_tok` is the guard's declaration token index (scopes local-decl
        lookup); defaults to end-of-file."""
        toks = [t for t in expr if t.text not in ("(", ")", "*", "&")]
        if not toks:
            return None
        if at_tok is None:
            at_tok = len(self.files[fn.file].tokens) if fn.file in \
                self.files else 1 << 30
        cls = self.find_class(fn.cls) if fn.cls else None
        # Single identifier: member field (incl. through bases).
        if len(toks) == 1 and toks[0].kind == "ident":
            field = self.class_field(cls, toks[0].text)
            if field is not None:
                return field.init_string
            return None
        # a.b / a->b chains: resolve owner type, then the final field.
        if len(toks) >= 3 and toks[-2].text in (".", "->"):
            owner_t = self.resolve_expr_type(expr[:-2], fn, at_tok)
            owner = self.find_class(owner_t, fn.qualname) if owner_t \
                else None
            field = self.class_field(owner, toks[-1].text)
            if field is not None:
                return field.init_string
        return None


def _strip_type(text: str) -> str:
    for kw in ("const ", "mutable ", "static ", "volatile "):
        text = text.replace(kw, "")
    return text.replace("&", "").replace("*", "").strip()


# ---------------------------------------------------------------------------


@dataclasses.dataclass
class _Scope:
    kind: str          # 'ns' | 'class' | 'fn' | 'block' | 'opaque'
    name: str = ""
    open_tok: int = -1
    close_tok: int = -1
    fn: Optional[FunctionDef] = None


class _Parser:
    """Single-file pass: scope tree + declarations + calls into the index."""

    def __init__(self, index: CodeIndex, lf: lexer.LexedFile):
        self.index = index
        self.lf = lf
        self.toks = lf.tokens
        self.match = self._match_brackets()

    def _match_brackets(self) -> dict[int, int]:
        match: dict[int, int] = {}
        stack: list[tuple[str, int]] = []
        closers = {")": "(", "}": "{", "]": "["}
        for i, t in enumerate(self.toks):
            if t.kind != "punct":
                continue
            if t.text in "({[":
                stack.append((t.text, i))
            elif t.text in ")}]":
                want = closers[t.text]
                while stack and stack[-1][0] != want:
                    stack.pop()  # unbalanced — drop strays, keep going
                if stack:
                    _, j = stack.pop()
                    match[j] = i
                    match[i] = j
        return match

    # -- template-argument matcher (heuristic, on demand) -------------------

    def skip_template_args(self, i: int) -> int:
        """`i` points at '<'. Returns index after the matching '>' or `i`
        when this is not a template argument list."""
        depth = 0
        j = i
        limit = min(len(self.toks), i + 400)
        while j < limit:
            text = self.toks[j].text
            if text == "<":
                depth += 1
            elif text == ">":
                depth -= 1
                if depth == 0:
                    return j + 1
            elif text == ">>":
                depth -= 2
                if depth <= 0:
                    return j + 1
            elif text in (";", "{", "}") or (
                    text in ("&&", "||") and depth > 0):
                return i
            j += 1
        return i

    # -- type / name helpers -------------------------------------------------

    def type_text(self, start: int, end: int) -> str:
        """Render tokens [start, end) as a type string."""
        out: list[str] = []
        i = start
        while i < end:
            t = self.toks[i]
            if t.kind == "ident" and t.text in (
                    "const", "mutable", "static", "volatile", "typename",
                    "constexpr", "inline", "extern", "friend", "explicit",
                    "virtual"):
                i += 1
                continue
            if t.text in ("&", "*", "&&"):
                i += 1
                continue
            if t.kind == "str":
                out.append(f'"{t.text}"')
            else:
                out.append(t.text)
            i += 1
        text = ""
        for piece in out:
            if text and piece[0].isalnum() and text[-1].isalnum():
                text += " "
            text += piece
        return text

    # -- main walk -----------------------------------------------------------

    def parse(self) -> None:
        toks = self.toks
        scopes: list[_Scope] = [_Scope("ns", "")]
        i = 0
        n = len(toks)
        while i < n:
            t = toks[i]
            if t.text == "using" and t.kind == "ident":
                i = self.parse_using(i)
                continue
            if t.text == "typedef" and t.kind == "ident":
                i = self.parse_typedef(i)
                continue
            if t.text == "{" and t.kind == "punct":
                scope = self.classify_brace(i, scopes)
                scope.open_tok = i
                scope.close_tok = self.match.get(i, n - 1)
                scopes.append(scope)
                if scope.kind == "class":
                    self.parse_class_body(scope)
                    i = scope.close_tok + 1
                    scopes.pop()
                    continue
                if scope.kind == "fn" and scope.fn is not None:
                    self.parse_function_body(scope.fn, i,
                                             scope.close_tok)
                    i = scope.close_tok + 1
                    scopes.pop()
                    continue
                if scope.kind == "opaque":
                    i = scope.close_tok + 1
                    scopes.pop()
                    continue
                i += 1
                continue
            if t.text == "}" and t.kind == "punct":
                if len(scopes) > 1:
                    scopes.pop()
                i += 1
                continue
            i += 1

    def enclosing_name(self, scopes: list[_Scope]) -> str:
        parts = [s.name for s in scopes if s.kind in ("ns", "class") and s.name]
        return "::".join(parts)

    def classify_brace(self, i: int, scopes: list[_Scope]) -> _Scope:
        """Decide what the '{' at token i opens."""
        toks = self.toks
        prev = toks[i - 1] if i > 0 else None
        # namespace NAME {  /  namespace A::B {  /  namespace {
        j = i - 1
        while j >= 0 and (toks[j].kind == "ident" or toks[j].text == "::"):
            if toks[j].kind == "ident" and toks[j].text == "namespace":
                name = "".join(t.text for t in toks[j + 1:i])
                return _Scope("ns", name)
            j -= 1
        # class/struct/union/enum headers: scan back to the keyword, stopping
        # at statement boundaries.
        j = i - 1
        while j >= 0 and toks[j].text not in (";", "{", "}", ")"):
            if toks[j].kind == "ident" and toks[j].text in ("class", "struct",
                                                            "union", "enum"):
                if toks[j].text == "enum":
                    return _Scope("opaque")
                name = self.class_header_name(j, i)
                if name is None:
                    return _Scope("opaque")
                qual = self.enclosing_name(scopes)
                info = ClassInfo(qual + "::" + name if qual else name, name,
                                 self.lf.path, toks[j].line,
                                 bases=self.class_bases(j, i))
                self.index.classes.setdefault(info.qualname, info)
                self.index.classes_by_name.setdefault(info.name, [])
                if info.qualname not in self.index.classes_by_name[info.name]:
                    self.index.classes_by_name[info.name].append(info.qualname)
                return _Scope("class", name)
            j -= 1
        # `) {`, possibly with trailing specifiers: `) const noexcept {`.
        k = i - 1
        while k > 0 and toks[k].kind == "ident" and toks[k].text in (
                "const", "noexcept", "override", "final", "volatile",
                "mutable"):
            k -= 1
        if k > 0 and toks[k].text == ")":
            open_paren = self.match.get(k)
            if open_paren is None:
                return _Scope("opaque")
            header = self.control_or_function(open_paren, i, scopes)
            if header is not None:
                return header
            return _Scope("block")
        if prev is not None and prev.kind == "ident" and prev.text in (
                "else", "do", "try"):
            return _Scope("block")
        if prev is not None and prev.text == "]":
            return _Scope("block")  # lambda without parameter list
        # expression braces (= {...}, {"name"}, arg lists): transparent.
        return _Scope("opaque")

    def class_header_name(self, kw: int, brace: int) -> Optional[str]:
        """Name of `class ... NAME [final] [: bases] {`, skipping attribute
        macro calls like CODS_CAPABILITY("mutex")."""
        toks = self.toks
        j = kw + 1
        name = None
        while j < brace:
            t = toks[j]
            if t.text == ":":
                break
            if t.kind == "ident" and t.text not in ("final", "alignas"):
                if j + 1 < brace and toks[j + 1].text == "(":
                    j = self.match.get(j + 1, j + 1) + 1  # macro/attr call
                    continue
                name = t.text
            j += 1
        return name

    def class_bases(self, kw: int, brace: int) -> list[str]:
        toks = self.toks
        j = kw + 1
        while j < brace and toks[j].text != ":":
            if toks[j].text == "(":
                j = self.match.get(j, j) + 1
                continue
            j += 1
        if j >= brace:
            return []
        bases = []
        k = j + 1
        seg_start = k
        depth = 0
        while k <= brace:
            text = toks[k].text if k < brace else ","
            if text == "<":
                nk = self.skip_template_args(k)
                if nk > k:
                    k = nk
                    continue
            if text in ("(",):
                depth += 1
            elif text in (")",):
                depth -= 1
            if text == "," and depth == 0 or k == brace:
                seg = [t for t in toks[seg_start:k]
                       if t.text not in ("public", "private", "protected",
                                         "virtual")]
                if seg:
                    bases.append("".join(t.text for t in seg))
                seg_start = k + 1
            k += 1
        return bases

    def control_or_function(self, open_paren: int, brace: int,
                            scopes: list[_Scope]) -> Optional[_Scope]:
        """`( ... ) {` — a control statement, a lambda, a function def, or
        (when classification fails inside a function) a plain block."""
        toks = self.toks
        before = open_paren - 1
        # `for/if/while/switch/catch (...) {`
        if before >= 0 and toks[before].kind == "ident" and \
                toks[before].text in CONTROL_KEYWORDS:
            return _Scope("block")
        # lambda `[...] (...) ... {`
        if before >= 0 and toks[before].text == "]":
            return _Scope("block")
        # Constructor member-init lists / trailing specifiers: walk back from
        # the brace over `: a_(x), b_{y}` and `const noexcept override -> T`.
        paren = self.rewind_to_param_list(open_paren, brace)
        if paren is None:
            return None
        before = paren - 1
        if before < 0 or toks[before].kind != "ident" or \
                toks[before].text in KEYWORDS and \
                toks[before].text != "operator":
            # operator() / operator== definitions: name is 'operator' + punct
            if before >= 1 and toks[before - 1].text == "operator":
                before -= 1
            elif before >= 0 and toks[before].text == "operator":
                pass
            else:
                return None
        in_fn = any(s.kind == "fn" for s in scopes)
        if in_fn:
            return _Scope("block")
        name_tok = toks[before]
        name = name_tok.text
        # Qualified definition `Ret Class::name(...)`.
        cls_quals: list[str] = []
        k = before - 1
        while k - 1 >= 0 and toks[k].text == "::" and \
                toks[k - 1].kind == "ident":
            cls_quals.insert(0, toks[k - 1].text)
            k -= 2
        prefix = self.enclosing_name(scopes)
        owner: Optional[str] = None
        if cls_quals:
            owner = "::".join(cls_quals)
            info = self.index.find_class(owner, prefix or None)
            if info is not None:
                owner = info.qualname
            elif prefix:
                owner = prefix + "::" + owner
        else:
            encl = [s for s in scopes if s.kind == "class"]
            if encl:
                owner = prefix  # prefix already ends with the class name
        qual = (owner + "::" + name) if owner else (
            (prefix + "::" + name) if prefix else name)
        fn = FunctionDef(qual, name, owner, self.lf.path, name_tok.line,
                         (brace, self.match.get(brace, brace)))
        self.index.functions.setdefault(qual, []).append(fn)
        self.index.functions_by_name.setdefault(name, []).append(fn)
        self.parse_params(fn, paren, self.match.get(paren, paren))
        return _Scope("fn", name, fn=fn)

    def parse_params(self, fn: FunctionDef, open_paren: int,
                     close_paren: int) -> None:
        """Parameter declarations: `TYPE name [= default]` per comma
        segment, recorded like locals so receiver/guard expressions that
        start at a parameter resolve."""
        toks = self.toks
        for arg in self.split_args(open_paren + 1, close_paren):
            # Truncate at a default argument.
            for k, t in enumerate(arg):
                if t.text == "=":
                    arg = arg[:k]
                    break
            if len(arg) < 2:
                continue
            name_tok = arg[-1]
            if name_tok.kind != "ident" or name_tok.text in KEYWORDS:
                continue
            # Absolute index of the name token.
            idx = None
            for j in range(open_paren, close_paren):
                if toks[j] is name_tok:
                    idx = j
                    break
            if idx is None:
                continue
            type_text = self.type_text_of(arg[:-1])
            if not type_text or type_text == "auto":
                continue
            fn.decls.append(LocalDecl(
                name_tok.text, self.index.canon_type_name(type_text),
                idx, name_tok.line))

    def type_text_of(self, toks_list: list[lexer.Token]) -> str:
        out = ""
        for t in toks_list:
            if t.kind == "ident" and t.text in (
                    "const", "mutable", "volatile", "typename"):
                continue
            if t.text in ("&", "*", "&&"):
                continue
            piece = t.text
            if out and piece[0].isalnum() and out[-1].isalnum():
                out += " "
            out += piece
        return out

    def rewind_to_param_list(self, open_paren: int,
                             brace: int) -> Optional[int]:
        """From the `(` directly before the brace (after specifier
        stripping), walk back across a constructor init list to the real
        parameter list opener. Returns the index of that `(`."""
        toks = self.toks
        # Trailing specifiers between ) and { were already skipped by the
        # caller passing the right open_paren only in the simple case; here
        # handle `) : a_(x), b_(y) {` — the paren before the brace belongs
        # to the last initializer.
        paren = open_paren
        while True:
            before = paren - 1
            if before < 0:
                return paren
            t = toks[before]
            if t.kind == "ident" and t.text not in KEYWORDS:
                # `ident ( ` — init-list entry or the function name; decide
                # by what precedes the chain.
                k = before - 1
                while k - 1 >= 0 and toks[k].text == "::" and \
                        toks[k - 1].kind == "ident":
                    k -= 2
                if k >= 0 and toks[k].text in (":", ","):
                    # member-initializer — continue past it.
                    prev_close = self.prev_significant(k)
                    if prev_close is None:
                        return None
                    if toks[k].text == ":" :
                        if toks[prev_close].text == ")":
                            paren = self.match.get(prev_close)
                            if paren is None:
                                return None
                            continue
                        return None
                    # `,` — previous initializer ends with ) or }.
                    if toks[prev_close].text in (")", "}"):
                        opener = self.match.get(prev_close)
                        if opener is None:
                            return None
                        paren = opener
                        continue
                    return None
                return paren
            return paren

    def prev_significant(self, i: int) -> Optional[int]:
        return i - 1 if i - 1 >= 0 else None

    # -- using / typedef -----------------------------------------------------

    def parse_using(self, i: int) -> int:
        toks = self.toks
        n = len(toks)
        j = i + 1
        if j < n and toks[j].text == "namespace":
            while j < n and toks[j].text != ";":
                j += 1
            return j + 1
        # using NAME = TYPE ;
        if j + 1 < n and toks[j].kind == "ident" and toks[j + 1].text == "=":
            name = toks[j].text
            k = j + 2
            start = k
            while k < n and toks[k].text != ";":
                k += 1
            target = self.type_text(start, k)
            if target:
                self.index.aliases[name] = target
            return k + 1
        # using ns::name ;  — import: bare name now means the qualified one.
        start = j
        while j < n and toks[j].text != ";":
            j += 1
        segs = [t.text for t in toks[start:j]]
        if segs and segs[-1] not in ("::",):
            full = "".join(segs)
            self.index.aliases.setdefault(segs[-1], full)
        return j + 1

    def parse_typedef(self, i: int) -> int:
        toks = self.toks
        n = len(toks)
        j = i + 1
        start = j
        while j < n and toks[j].text != ";":
            j += 1
        if j - 1 > start and toks[j - 1].kind == "ident":
            name = toks[j - 1].text
            target = self.type_text(start, j - 1)
            if target:
                self.index.aliases[name] = target
        return j + 1

    # -- class bodies --------------------------------------------------------

    def parse_class_body(self, scope: _Scope) -> None:
        """Fields and method signatures at class depth; nested functions
        (inline method bodies) are parsed as function defs."""
        toks = self.toks
        info = None
        # find ClassInfo again by scope name (last registered wins is fine).
        quals = self.index.classes_by_name.get(scope.name, [])
        for q in quals:
            if self.index.classes[q].file == self.lf.path:
                info = self.index.classes[q]
        if info is None and quals:
            info = self.index.classes[quals[0]]
        if info is None:
            return
        i = scope.open_tok + 1
        end = scope.close_tok
        stmt_start = i
        while i < end:
            t = toks[i]
            if t.text in ("public", "private", "protected") and \
                    i + 1 < end and toks[i + 1].text == ":":
                i += 2
                stmt_start = i
                continue
            if t.text == "<":
                nk = self.skip_template_args(i)
                if nk > i:
                    i = nk
                    continue
            if t.text == "(":
                close = self.match.get(i, i)
                # method?  ident ( ... ) -> look ahead for ; = { :
                name_idx = i - 1
                if name_idx >= 0 and toks[name_idx].kind == "ident" and (
                        toks[name_idx].text.isupper() or
                        toks[name_idx].text.startswith("CODS_")):
                    # Attribute macro (CODS_GUARDED_BY(mutex)): skip the
                    # call, keep the statement — it is a field declaration.
                    i = close + 1
                    continue
                # `>=`: a constructor's name sits AT the statement start.
                if name_idx >= stmt_start and toks[name_idx].kind == "ident" \
                        and toks[name_idx].text not in KEYWORDS:
                    after = close + 1
                    # skip trailing specifiers and init lists
                    k = after
                    while k < end and toks[k].text not in (";", "{", "=") :
                        if toks[k].text == "(":
                            k = self.match.get(k, k) + 1
                            continue
                        k += 1
                    is_def = k < end and toks[k].text == "{"
                    ret = self.type_text(stmt_start, name_idx)
                    mname = toks[name_idx].text
                    if name_idx > stmt_start and \
                            toks[name_idx - 1].text == "~":
                        mname = "~" + mname  # destructor: keep distinct
                        ret = ""
                    if mname != info.name and ret:
                        info.methods.setdefault(
                            mname, Method(mname, ret, toks[name_idx].line))
                    if is_def:
                        fn = FunctionDef(
                            info.qualname + "::" + mname, mname,
                            info.qualname, self.lf.path, toks[name_idx].line,
                            (k, self.match.get(k, k)))
                        self.index.functions.setdefault(
                            fn.qualname, []).append(fn)
                        self.index.functions_by_name.setdefault(
                            mname, []).append(fn)
                        self.parse_params(fn, i, close)
                        self.parse_function_body(fn, k, self.match.get(k, k))
                        i = self.match.get(k, k) + 1
                        stmt_start = i
                        continue
                    i = k + 1
                    stmt_start = i
                    continue
                i = close + 1
                continue
            if t.text == "{":
                # nested class/struct or initializer braces: recurse through
                # the generic walk for nested classes; skip init braces.
                j = i - 1
                nested = False
                while j >= stmt_start:
                    if toks[j].kind == "ident" and toks[j].text in (
                            "class", "struct", "union", "enum"):
                        nested = toks[j].text != "enum"
                        break
                    j -= 1
                close = self.match.get(i, i)
                if nested:
                    name = self.class_header_name(j, i)
                    if name is not None:
                        nested_info = ClassInfo(
                            info.qualname + "::" + name, name, self.lf.path,
                            toks[j].line, bases=self.class_bases(j, i))
                        self.index.classes.setdefault(nested_info.qualname,
                                                      nested_info)
                        self.index.classes_by_name.setdefault(name, [])
                        if nested_info.qualname not in \
                                self.index.classes_by_name[name]:
                            self.index.classes_by_name[name].append(
                                nested_info.qualname)
                        nested_scope = _Scope("class", name, i, close)
                        self.parse_class_body(nested_scope)
                    i = close + 1
                    stmt_start = i
                    continue
                # Member init braces (`Mutex a_{"name"};`): skip the braces
                # but keep stmt_start — the field declarator is before them
                # and parse_field reads the init string at the `;`.
                i = close + 1
                continue
            if t.text == ";":
                self.parse_field(info, stmt_start, i)
                i += 1
                stmt_start = i
                continue
            i += 1

    def parse_field(self, info: ClassInfo, start: int, semi: int) -> None:
        """`TYPE name_ [CODS_GUARDED_BY(...)] [{init} | = init] ;`"""
        toks = self.toks
        # Find the declarator name: last plain identifier before the
        # initializer / attribute part.
        name_idx = None
        init_string = None
        i = start
        depth_angle_end = -1
        while i < semi:
            t = toks[i]
            if t.text == "<":
                nk = self.skip_template_args(i)
                if nk > i:
                    depth_angle_end = nk
                    i = nk
                    continue
            if t.text in ("=", "{"):
                break
            if t.kind == "ident" and t.text not in KEYWORDS:
                if i + 1 < semi and toks[i + 1].text == "(":
                    if t.text.isupper() or t.text.startswith("CODS_"):
                        i = self.match.get(i + 1, i + 1) + 1
                        continue
                    return  # function-style — handled as method elsewhere
                name_idx = i
            i += 1
        if name_idx is None or name_idx == start:
            return
        # Initializer string literal (lock names).
        for j in range(name_idx + 1, semi):
            if toks[j].kind == "str":
                init_string = toks[j].text
                break
        type_end = name_idx
        # attributes between type and name already skipped by type_text
        type_text = self.type_text(start, type_end)
        if not type_text:
            return
        del depth_angle_end
        field = Field(toks[name_idx].text,
                      self.index.canon_type_name(type_text), init_string,
                      toks[name_idx].line)
        info.fields.setdefault(field.name, field)

    # -- function bodies -----------------------------------------------------

    def parse_function_body(self, fn: FunctionDef, open_brace: int,
                            close_brace: int) -> None:
        toks = self.toks
        i = open_brace + 1
        stmt_start = i
        while i < close_brace:
            t = toks[i]
            if t.text == "<" and t.kind == "punct":
                nk = self.skip_template_args(i)
                if nk > i:
                    i = nk
                    continue
            if t.text in (";", "{", "}"):
                if t.text == "{":
                    pass  # statements keep flowing; blocks are transparent
                i += 1
                stmt_start = i
                continue
            if t.kind == "ident" and t.text == "for" and i + 1 < close_brace \
                    and toks[i + 1].text == "(":
                close = self.match.get(i + 1, i + 1)
                colon = self.find_top_level(i + 2, close, ":")
                if colon is not None:
                    seq = toks[colon + 1:close]
                    body_open = close + 1
                    body_close = self.match.get(body_open, body_open) \
                        if body_open < len(toks) and \
                        toks[body_open].text == "{" else close + 1
                    fn.range_fors.append(RangeFor(
                        list(seq), toks[i].line, self.lf.path,
                        (body_open, body_close)))
                    # The loop variable is a local decl for the body:
                    # `for (const Shard& shard : shards_)` lets guard
                    # expressions like `shard.mutex` resolve. Structured
                    # bindings and `auto` stay unresolvable (type unknown).
                    decl_seg = toks[i + 2:colon]
                    if decl_seg and decl_seg[-1].kind == "ident" and \
                            decl_seg[-1].text not in KEYWORDS:
                        ty = self.type_text_of(decl_seg[:-1])
                        if ty and ty != "auto":
                            fn.decls.append(LocalDecl(
                                decl_seg[-1].text,
                                self.index.canon_type_name(ty),
                                colon - 1, decl_seg[-1].line))
                i += 2
                stmt_start = i
                continue
            if t.kind == "ident" and t.text not in KEYWORDS and \
                    i + 1 <= close_brace and toks[i + 1].text == "(":
                self.parse_call(fn, i)
                i += 2
                continue
            i += 1
        self.parse_decls_and_guards(fn, open_brace, close_brace)

    def find_top_level(self, start: int, end: int,
                       text: str) -> Optional[int]:
        depth = 0
        for i in range(start, end):
            tt = self.toks[i].text
            if tt in "([{":
                depth += 1
            elif tt in ")]}":
                depth -= 1
            elif tt == text and depth == 0:
                return i
        return None

    def parse_call(self, fn: FunctionDef, name_idx: int) -> None:
        toks = self.toks
        t = toks[name_idx]
        if t.text.isupper() or t.text.startswith("CODS_"):
            return  # macro invocation
        close = self.match.get(name_idx + 1, name_idx + 1)
        # Written qualification: A::B::name(
        qual_parts: list[str] = []
        j = name_idx - 1
        while j - 1 >= 0 and toks[j].text == "::" and \
                toks[j - 1].kind == "ident":
            qual_parts.insert(0, toks[j - 1].text)
            j -= 2
        qual = "::".join(qual_parts)
        recv: list[lexer.Token] = []
        if not qual_parts and j >= 0 and toks[j].text in (".", "->"):
            # receiver chain: walk back over ident/()/[]/::/. segments.
            k = j
            while k >= 0:
                text = toks[k].text
                if text in (".", "->", "::"):
                    k -= 1
                    continue
                if text in (")", "]"):
                    opener = self.match.get(k)
                    if opener is None:
                        break
                    if opener - 1 >= 0 and \
                            toks[opener - 1].kind == "ident" and \
                            toks[opener - 1].text in CONTROL_KEYWORDS:
                        break  # `if (...) recv->call()`: paren is a condition
                    k = opener - 1
                    continue
                if text == "this" or (toks[k].kind == "ident" and
                                      text not in KEYWORDS):
                    k -= 1
                    continue
                break
            recv = list(toks[k + 1:j])
        fn.calls.append(CallSite(t.text, qual, recv, name_idx, t.line,
                                 self.lf.path, (name_idx + 1, close)))

    def parse_decls_and_guards(self, fn: FunctionDef, open_brace: int,
                               close_brace: int) -> None:
        """Local declarations `TYPE name ...;` — records plain decls, guard
        scopes (MutexLock & friends) and implicit constructor calls for
        indexed class types (e.g. blocking::ScopedBlock block;)."""
        toks = self.toks
        i = open_brace + 1
        stmt_start = i
        while i < close_brace:
            t = toks[i]
            if t.text in (";", "{", "}") and t.kind == "punct":
                i += 1
                stmt_start = i
                continue
            if t.kind == "ident" and t.text not in KEYWORDS and \
                    i == stmt_start:
                decl = self.try_parse_decl(fn, i, close_brace)
                if decl is not None:
                    i = decl
                    stmt_start = i
                    continue
            if t.text == "(" :
                i = self.match.get(i, i) + 1
                continue
            i += 1

    def try_parse_decl(self, fn: FunctionDef, start: int,
                       limit: int) -> Optional[int]:
        """Parse `TYPE name (init)|{init}|= init|;` at statement start.
        Returns the index to resume at, or None when not a declaration."""
        toks = self.toks
        i = start
        # Type: ident(::ident)* [<...>] [*&]*  (skip cv)
        while i < limit and toks[i].kind == "ident" and toks[i].text in (
                "const", "static", "mutable", "constexpr", "auto"):
            if toks[i].text == "auto":
                break
            i += 1
        type_start = i
        if i >= limit or toks[i].kind != "ident" or toks[i].text in KEYWORDS \
                and toks[i].text != "auto":
            return None
        i += 1
        while i + 1 < limit and toks[i].text == "::" and \
                toks[i + 1].kind == "ident":
            i += 2
        if i < limit and toks[i].text == "<":
            nk = self.skip_template_args(i)
            if nk == i:
                return None
            i = nk
        while i < limit and toks[i].text in ("&", "*", "&&", "const"):
            i += 1
        if i >= limit or toks[i].kind != "ident" or toks[i].text in KEYWORDS:
            return None
        name_idx = i
        after = i + 1
        if after >= limit or toks[after].text not in (";", "=", "(", "{", ","):
            return None
        type_text = self.type_text(type_start, name_idx)
        if not type_text or type_text == "return":
            return None
        canonical = self.index.canon_type_name(type_text)
        head = canonical.split("<")[0]
        bare_head = head.rsplit("::", 1)[-1] if not head.startswith("std::") \
            else head
        decl = LocalDecl(toks[name_idx].text, canonical, name_idx,
                         toks[name_idx].line)
        fn.decls.append(decl)
        # Guard?
        guard_kind = GUARD_TYPES.get(head) or GUARD_TYPES.get(bare_head)
        if guard_kind is not None and after < limit and \
                toks[after].text in ("(", "{"):
            close = self.match.get(after, after)
            expr = list(toks[after + 1:close])
            # std::lock_guard<std::mutex> g(mu) — first arg is the mutex;
            # scoped_lock may take several: record one guard per argument.
            args = self.split_args(after + 1, close)
            # enclosing block end:
            end_tok = self.enclosing_block_end(name_idx)
            for arg in args:
                if not arg:
                    continue
                fn.guards.append(GuardScope(
                    bare_head if bare_head in GUARD_TYPES else head,
                    arg, None, name_idx, end_tok, toks[name_idx].line,
                    self.lf.path))
            del expr
        elif self.index.classes_by_name.get(bare_head):
            fn.ctor_decls.append((head, name_idx, toks[name_idx].line))
        # Resume after the statement.
        j = after
        depth = 0
        while j < limit:
            tt = toks[j].text
            if tt in "({[":
                depth += 1
            elif tt in ")}]":
                depth -= 1
            elif tt == ";" and depth <= 0:
                return j + 1
            j += 1
        return j

    def split_args(self, start: int, end: int) -> list[list[lexer.Token]]:
        args: list[list[lexer.Token]] = [[]]
        depth = 0
        for i in range(start, end):
            t = self.toks[i]
            if t.text in "([{":
                depth += 1
            elif t.text in ")]}":
                depth -= 1
            if t.text == "," and depth == 0:
                args.append([])
            else:
                args[-1].append(t)
        return [a for a in args if a]

    def enclosing_block_end(self, tok_idx: int) -> int:
        """Closing } of the nearest block containing tok_idx."""
        best = len(self.toks) - 1
        for open_idx, close_idx in self.match.items():
            if self.toks[open_idx].text != "{":
                continue
            if open_idx < tok_idx < close_idx < best + 1:
                if close_idx - open_idx < best - open_idx or True:
                    pass
        # simpler: scan back for unmatched '{'
        depth = 0
        i = tok_idx
        while i >= 0:
            tt = self.toks[i].text
            if tt == "}":
                depth += 1
            elif tt == "{":
                if depth == 0:
                    return self.match.get(i, len(self.toks) - 1)
                depth -= 1
            i -= 1
        return len(self.toks) - 1
