"""kronlab_analyze — the project's one static-analysis tool.

One frontend lowers C++ translation units into a small concurrency IR
(`analyzer.ir`), and one lexer (`analyzer.lexer`) gives every rule the
same token stream and comment- and string-blanked view.  The rules
(`analyzer.rules`) are five semantic checks over the IR and tokens plus
ten line rules over the blanked view.

See DESIGN.md §15 for the rule map and escape policy.
"""

__version__ = "2.0"

RULES = (
    "lock-order",
    "blocking-under-lock",
    "memory-order",
    "unchecked-read",
    "registry",
    "naked-new",
    "random-source",
    "trace-span-scope",
    "no-endl",
    "header-guard",
    "no-assert",
    "durable-io",
    "dist-send",
    "obs-log",
    "tmp-path",
)
