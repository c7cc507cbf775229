"""Test-only reference: the character-by-character scanner of the
expression language, as the package had it before its one regular
expression.  It returns (kind, text, line, column) tokens; a number's
digits are those of str.isdigit, so it passes "²" to float()."""

from holotwist.errors import ExprSyntaxError


def tokenize(source):
    tokens = []
    i, line, col = 0, 1, 1
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        start_col = col
        if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (source[j].isdigit() or (source[j] == "." and not seen_dot)):
                if source[j] == ".":
                    seen_dot = True
                j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    j = k
                    while j < n and source[j].isdigit():
                        j += 1
            text = source[i:j]
            tokens.append(("num", text, line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(("ident", source[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in "+-*/^":
            tokens.append(("op", ch, line, start_col))
        elif ch == "(":
            tokens.append(("lparen", ch, line, start_col))
        elif ch == ")":
            tokens.append(("rparen", ch, line, start_col))
        elif ch == ",":
            tokens.append(("comma", ch, line, start_col))
        else:
            raise ExprSyntaxError(f"unexpected character {ch!r}", line, start_col)
        i += 1
        col += 1
    tokens.append(("end", "", line, col))
    return tokens
