"""Autofixes for the mechanical rules (``repro-lint --fix``).

Three rules are mechanical enough to fix without judgement:

* **RL004** (mutable default argument): the default becomes ``None`` and
  a guard recreating the original value is inserted at the top of the
  body, after the docstring::

      def f(items=[]):          def f(items=None):
          return items      ->      if items is None:
                                        items = []
                                    return items

* **RL006** (blanket exception swallowing): the no-op handler body is
  replaced by a re-raise stub, turning silent loss into a visible
  failure the author must then handle deliberately::

      except Exception:         except Exception:
          pass              ->      raise  # reprolint: re-raise (was swallowed)

* **RL304** (unstable sort order): ``np.sort``/``np.argsort`` calls --
  and ``.argsort()`` method calls, which only arrays have -- gain an
  explicit stable kind::

      np.argsort(weights)   ->  np.argsort(weights, kind="stable")

  Calls that already pass a ``kind=`` are untouched: the fix never
  overrides an explicit choice, even an unstable one.

Every fix is driven by the rule's own findings (via the engine), so
suppression comments and package scopes hold, and a site the linter
would not flag is never rewritten.  Every fix is idempotent: the
rewritten code no longer triggers the rule, so a second ``--fix`` pass
is a no-op.  Sites the surgery cannot handle safely (lambdas,
single-line ``def f(x=[]): ...`` bodies) are left alone and keep their
finding.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.lint.engine import LintEngine, registered_rules
from repro.lint.rules import (
    NoMutableDefaultArgsRule,
    NoSwallowedExceptionsRule,
    _module_aliases,
    unstable_sort_call,
)

#: Rules ``--fix`` knows how to rewrite.
FIXABLE_RULES = ("RL004", "RL006", "RL304")

_RERAISE_STUB = "raise  # reprolint: re-raise (was swallowed)"

#: One text edit: replace [start_line, start_col) .. [end_line, end_col)
#: (1-based lines, 0-based cols) with ``text`` (may contain newlines).
_Edit = Tuple[int, int, int, int, str]


def fix_source(source: str, path: str = "<string>") -> Tuple[str, int]:
    """Apply every possible RL004/RL006/RL304 fix to ``source``.

    Returns ``(new_source, applied)`` where ``applied`` counts the
    individual rewrites.  ``new_source is source`` when nothing applied.
    """
    registry = registered_rules()
    engine = LintEngine(
        rules=[
            registry[rule_id]()
            for rule_id in FIXABLE_RULES
            if rule_id in registry
        ]
    )
    findings = engine.lint_source(source, path)
    anchors: Set[Tuple[str, int, int]] = {
        (f.rule_id, f.line, f.col) for f in findings
    }
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError:
        return source, 0
    lines = source.split("\n")
    edits: List[_Edit] = []
    applied = 0
    numpy_names = _module_aliases(tree, "numpy")
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            applied += _collect_default_fixes(node, anchors, lines, edits)
        elif isinstance(node, ast.ExceptHandler):
            applied += _collect_swallow_fixes(node, anchors, edits)
        elif isinstance(node, ast.Call):
            applied += _collect_stable_sort_fixes(
                node, numpy_names, anchors, lines, edits
            )
    if not edits:
        return source, 0
    _apply_edits(lines, edits)
    return "\n".join(lines), applied


def fix_paths(paths: List[str]) -> Tuple[int, int]:
    """Fix every python file under ``paths`` in place.

    Returns ``(files_changed, fixes_applied)``.
    """
    from repro.lint.engine import iter_python_files

    files_changed = 0
    total = 0
    for file_path in iter_python_files(paths):
        original = file_path.read_text(encoding="utf-8")
        fixed, applied = fix_source(original, str(file_path))
        if applied:
            file_path.write_text(fixed, encoding="utf-8")
            files_changed += 1
            total += applied
    return files_changed, total


def _anchor(node: ast.AST) -> Tuple[int, int]:
    return getattr(node, "lineno", 0), getattr(node, "col_offset", -1) + 1


def _iter_named_defaults(
    args: ast.arguments,
) -> Iterator[Tuple[str, ast.expr]]:
    """(parameter name, default node) pairs, in signature order."""
    positional = list(args.posonlyargs) + list(args.args)
    defaults = list(args.defaults)
    for arg, default in zip(positional[len(positional) - len(defaults):], defaults):
        yield arg.arg, default
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, default


def _collect_default_fixes(
    node: ast.AST,
    anchors: Set[Tuple[str, int, int]],
    lines: List[str],
    edits: List[_Edit],
) -> int:
    """RL004: ``None``-out flagged defaults and insert the guards."""
    body = node.body
    insert_at, indent = _body_insertion_point(body, lines)
    fixes: List[Tuple[str, str]] = []  # (param, original default text)
    for name, default in _iter_named_defaults(node.args):
        line, col = _anchor(default)
        if ("RL004", line, col) not in anchors:
            continue
        end_line = getattr(default, "end_lineno", None)
        end_col = getattr(default, "end_col_offset", None)
        if end_line is None or end_col is None:
            continue
        if insert_at is None or line >= insert_at:
            continue  # single-line def (or default below body): unsafe
        segment = ast.get_source_segment("\n".join(lines), default)
        if segment is None:
            continue
        edits.append((line, default.col_offset, end_line, end_col, "None"))
        fixes.append((name, segment))
    if not fixes:
        return 0
    guard_lines: List[str] = []
    for name, segment in fixes:
        guard_lines.append(f"{indent}if {name} is None:")
        for index, segment_line in enumerate(segment.split("\n")):
            prefix = f"{indent}    {name} = " if index == 0 else ""
            guard_lines.append(prefix + segment_line)
    edits.append((insert_at, 0, insert_at, 0, "\n".join(guard_lines) + "\n"))
    return len(fixes)


def _body_insertion_point(
    body: List[ast.stmt], lines: List[str]
) -> Tuple[Optional[int], str]:
    """Line (1-based) to insert guards before, and the body indentation.

    Guards go after a leading docstring.  Returns ``(None, "")`` when
    there is no safe whole-line insertion point (one-line defs).
    """
    if not body:
        return None, ""
    first = body[0]
    is_docstring = (
        isinstance(first, ast.Expr)
        and isinstance(first.value, ast.Constant)
        and isinstance(first.value.value, str)
    )
    target = body[1] if is_docstring and len(body) > 1 else first
    if is_docstring and len(body) == 1:
        # Body is only a docstring: insert after its last line.
        end = getattr(first, "end_lineno", None)
        if end is None:
            return None, ""
        return end + 1, " " * first.col_offset
    line = getattr(target, "lineno", None)
    col = getattr(target, "col_offset", 0)
    if line is None or col == 0:
        return None, ""
    text = lines[line - 1] if 0 < line <= len(lines) else ""
    if text[:col].strip():
        return None, ""  # statement does not start the line: one-liner def
    return line, " " * col


def _collect_swallow_fixes(
    handler: ast.ExceptHandler,
    anchors: Set[Tuple[str, int, int]],
    edits: List[_Edit],
) -> int:
    """RL006: replace the no-op blanket handler body with a re-raise."""
    line, col = _anchor(handler)
    if ("RL006", line, col) not in anchors:
        return 0
    if handler.type is None:
        return 0  # bare except: naming the right exception needs a human
    if not handler.body or not all(
        NoSwallowedExceptionsRule._is_noop(stmt) for stmt in handler.body
    ):
        return 0
    first, last = handler.body[0], handler.body[-1]
    end_line = getattr(last, "end_lineno", None)
    end_col = getattr(last, "end_col_offset", None)
    if end_line is None or end_col is None:
        return 0
    edits.append(
        (first.lineno, first.col_offset, end_line, end_col, _RERAISE_STUB)
    )
    return 1


def _collect_stable_sort_fixes(
    node: ast.Call,
    numpy_names: FrozenSet[str],
    anchors: Set[Tuple[str, int, int]],
    lines: List[str],
    edits: List[_Edit],
) -> int:
    """RL304: add ``kind="stable"`` to a flagged sort call missing it."""
    if ("RL304", *_anchor(node)) not in anchors:
        return 0
    # The anchor is shared by calls chained off one receiver, so match
    # the call itself too; an explicit kind= is never overridden.
    if unstable_sort_call(node, numpy_names) is None:
        return 0
    if any(keyword.arg == "kind" for keyword in node.keywords):
        return 0
    # Anchor after the last argument (works for multi-line calls); with
    # no arguments, just inside the closing paren.
    operands = list(node.args) + [kw.value for kw in node.keywords]
    if operands:
        last = max(
            operands,
            key=lambda expr: (
                getattr(expr, "end_lineno", 0),
                getattr(expr, "end_col_offset", 0),
            ),
        )
        at_line = getattr(last, "end_lineno", None)
        at_col = getattr(last, "end_col_offset", None)
        insertion = ', kind="stable"'
    else:
        at_line = getattr(node, "end_lineno", None)
        at_col = getattr(node, "end_col_offset", None)
        at_col = at_col - 1 if at_col is not None else None
        insertion = 'kind="stable"'
    if at_line is None or at_col is None or at_col < 0:
        return 0
    text = lines[at_line - 1] if 0 < at_line <= len(lines) else ""
    if at_col > len(text):
        return 0
    edits.append((at_line, at_col, at_line, at_col, insertion))
    return 1


def _apply_edits(lines: List[str], edits: List[_Edit]) -> None:
    """Apply non-overlapping edits in reverse document order, so earlier
    positions stay valid while later text is rewritten."""
    for start_line, start_col, end_line, end_col, text in sorted(
        edits, key=lambda e: (e[0], e[1]), reverse=True
    ):
        prefix = lines[start_line - 1][:start_col]
        suffix = lines[end_line - 1][end_col:]
        lines[start_line - 1 : end_line] = (prefix + text + suffix).split("\n")


# Re-exported for tests that want the rule's own mutability predicate.
_is_mutable_default = NoMutableDefaultArgsRule._is_mutable
