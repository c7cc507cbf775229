from .parser import Expr, Num, Const, Coord, Unary, Bin, Call, parse, to_source
from .evaluate import eval_expr, eval_ad
from .forms import LocalForm, expr_form, exterior_derivative, \
    integrate_1form, integrate_2form

__all__ = [
    "Expr", "Num", "Const", "Coord", "Unary", "Bin", "Call",
    "parse", "to_source", "eval_expr", "eval_ad",
    "LocalForm", "expr_form", "exterior_derivative",
    "integrate_1form", "integrate_2form",
]
