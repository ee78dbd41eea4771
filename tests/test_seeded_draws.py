"""Seeded draws stay the same draws: the renders of two consecutive draws
from ``random.Random(seed)`` for seeds 0 to 19, of the line's canonical
opens, a product's opens, a direct sum's opens and a random set of the
line; and of the opens and a random set of an atom carrier and of a
product of finite carriers, whose sets are bitmasks.

The audit and the golden fixtures replay these draws, but not every draw
reaches a fixture, so a change to the order in which a draw consumes its
generator (say, every fraction before the open/closed flags) could pass
them.  The renders below were recorded from the hand-written folds that
drew one piece at a time; those of the finite carriers, from the frozensets
of atoms and the boxes that their sets were before they became bitmasks.
"""

import random

import pytest

from gtskit import library as lib
from gtskit import setexpr as sx
from gtskit.carriers import FiniteEnum, Product, QLine
from gtskit.constructions import direct_sum, product, subspace
from gtskit.presentation import All, AllSets, GtsPresentation

LINE = lib.rational_interval_line()
PRODUCT = product([LINE, lib.discrete_small_nat()])[0]
SUM = direct_sum([subspace(LINE, sx.interval(-2, 0)), subspace(LINE, sx.interval(1, 3))])
ENUM5 = FiniteEnum(("a", "b", "c", "d", "e"))
DISCRETE5 = GtsPresentation(ENUM5, AllSets(), All(), sx.atoms(ENUM5, "abcd"))
FINITE_PRODUCT = product([lib.sierpinski(), DISCRETE5])[0]
PAIRS = Product(Product(FiniteEnum(("x", "y")), FiniteEnum(("x", "y"))),
                FiniteEnum(("p", "q", "r")))

DRAWS = {
    "canonical-open": lambda rng: LINE.opens.draw(LINE, rng),
    "product": lambda rng: PRODUCT.opens.draw(PRODUCT, rng),
    "glued": lambda rng: SUM.opens.draw(SUM, rng),
    "line-random-set": lambda rng: sx.random_set(QLine(), rng),
    "enum-opens": lambda rng: DISCRETE5.opens.draw(DISCRETE5, rng),
    "enum-random-set": lambda rng: sx.random_set(ENUM5, rng),
    "finite-product-opens": lambda rng: FINITE_PRODUCT.opens.draw(FINITE_PRODUCT, rng),
    "finite-product-random-set": lambda rng: sx.random_set(PAIRS, rng),
}

RENDERS = {
    'canonical-open': [
        ('(-5/9,7)', 'empty'),
        ('(-24/17,-17/32)', '(-32/29,15)'),
        ('empty', 'empty'),
        ('(-2/3,28/5)', 'empty'),
        ('(18/31,6/7)', '(-21/5,-15/13)'),
        ('(-26/11,-3/4) u (27/16,13/2)', '(-12/5,10/9)'),
        ('empty', '(-16/5,1/3) u (7/6,4)'),
        ('(-26/5,-1/2)', 'empty'),
        ('(-16/13,3/5)', 'empty'),
        ('(-16/11,16/15)', '(-12/11,25/28)'),
        ('empty', '(-4,29)'),
        ('(-7,7/3)', '(-25/3,25/11)'),
        ('(-16/5,26/15)', '(-15/2,19/6)'),
        ('(-16/5,-1/3) u (-3/10,5/12)', '(5/2,23/9)'),
        ('empty', '(2/17,1)'),
        ('(-31/3,-3/4)', 'empty'),
        ('(-32/27,-3/29) u (4/27,28/31)', '(-31/19,3/11)'),
        ('(-29/16,17/27)', '(-15/4,10/3)'),
        ('(-17/29,5/8)', '(-9/31,15/16)'),
        ('empty', 'empty'),
    ],
    'product': [
        ('empty', 'box((-23/22,1) ; {3,11,17})'),
        ('empty', 'box((-29/25,23) ; {0,20})'),
        ('empty', 'empty'),
        ('empty', 'box((-24,15/31) ; co{7,8,17}) u box([15/31,3) ; {15,19})'),
        ('empty', 'empty'),
        ('box((-26/11,-31/14] u (27/16,13/2) ; co{7,12,17}) u '
         'box((-31/14,10/9) ; co{12})',
         'empty'),
        ('box((-5/3,5/7) u (30/13,20/7) ; {2,11})', 'box((-4,7/8) ; co{9,11,13,18})'),
        ('box((-23/7,9/2) ; {1,18})', 'empty'),
        ('empty', 'box((-9/2,-16/13) u (-15/16,19/2) ; co{12,15,18})'),
        ('box((-9,11/30) ; {1,19,22,23})',
         'box((-11/16,17/7) ; co{3,19}) u box((-13/4,-16/5) ; {2,7,8,13,23}) u '
         'box((-27/13,-11/16] u [17/7,10/3) ; co{3,19,23})'),
        ('box((-1,9/5) ; co{9,13,21})', 'empty'),
        ('box((-7/3,25/13) ; {19,20,23})',
         'box((-16/3,9/29) u (13/9,10/3) ; co{7,8,9,10,16})'),
        ('box((1/10,15/31) u (6/5,16) ; {0,7,17,19,21})', 'box((-3/2,11/26) ; whole)'),
        ('box((-23/14,-1) u (-14/15,-3/5) ; {0,4,9,13,21})', 'empty'),
        ('empty',
         'box((-11,-2/3) u [1,7/5) ; co{0,2,3,10,19}) u box((13/17,1) ; co{3}) u '
         'box((2/17,13/17] ; co{3,9,12,14,21})'),
        ('empty', 'empty'),
        ('box((-31/19,-2/15) u (20/17,25) ; co{10,21})',
         'box((-13/2,-21/23] ; {7,9,20,22}) u box((-21/23,9/10) ; {0,1,2,7,9,20,22}) u '
         'box([9/10,31/28) ; {0,1,2,9})'),
        ('box((-29/16,17/27) ; co{4,12,17,21,23}) u '
         'box([17/27,5/4) ; {2,9,13,16,20})',
         'box((-15/14,10/11) ; {1,18})'),
        ('empty', 'empty'),
        ('box((-19/17,-14/17) u (2/7,20/21) ; {0,9})', 'empty'),
    ],
    'glued': [
        ('empty', 'empty'),
        ('(1,8/7) u (25/18,3)', 'empty'),
        ('empty', 'empty'),
        ('(-2,0)', '(-8/31,0) u (1,3)'),
        ('empty', '(1,5/4)'),
        ('(-3/2,0)', 'empty'),
        ('empty', '(-2,0) u (1,20/7)'),
        ('(-2,0)', 'empty'),
        ('(-2,-16/13) u (-15/16,0) u (1,28/25)', '(1,30/13)'),
        ('(-2,0)', '(1,17/7)'),
        ('(-2,0)', '(1,13/6)'),
        ('(-2,0)', 'empty'),
        ('(-31/24,-14/25)', '(1,3)'),
        ('(-1/3,-3/10) u (5/2,23/9)', 'empty'),
        ('(27/26,9/4)', 'empty'),
        ('empty', '(-2,-7/12) u (1,27/23)'),
        ('(-2,0)', '(-2,0) u (1,3)'),
        ('(-2,0)', '(-2,0)'),
        ('(-7/17,0)', '(-2/11,-2/13)'),
        ('empty', '(-23/13,-3/5)'),
    ],
    'line-random-set': [
        ('(-20/17,-7/10) u (1/32,7]', '(-6/31,4]'),
        ('[-24/17,-17/32)', '[-15,15)'),
        ('empty', 'empty'),
        ('[-2/3,28/5]', '(-31/5,-4) u [-3/10,9/5]'),
        ('(18/31,6/7)', '[-5/2,-19/17] u (-11/20,5/4)'),
        ('(-3/4,13/2]', '(-31/14,10/9]'),
        ('empty', '[-16/5,20/7]'),
        ('[-26/5,-1/2)', 'empty'),
        ('[-16/13,3/5)', '(16/7,19/2)'),
        ('[-5/4,16/15]', '[-2,-1/2]'),
        ('empty', '(-4,29]'),
        ('(-9/7,25/11]', 'empty'),
        ('[-3,1)', '(-23/22,19/6)'),
        ('[-23/14,-1) u [-3/10,5/12]', '[-7/3,-31/18]'),
        ('empty', '[2/17,1)'),
        ('(-31/3,-3/4]', '(-9/11,15/16)'),
        ('(-4,1/16] u (4/27,28/31)', '(-4/17,7/2)'),
        ('(-29/16,19/9)', '[-13/14,5/4]'),
        ('(-17/29,5/8)', '(-17/21,-5/8) u [-9/31,1/6) u [14/13,31/14)'),
        ('empty', 'empty'),
    ],
    'enum-opens': [
        ('{c,d}', '{a,c,d}'),
        ('{a,d}', '{a,d}'),
        ('{c,d}', '{c}'),
        ('{a,c}', '{a,b,d}'),
        ('{a,b,c,d}', '{a}'),
        ('empty', '{b,c}'),
        ('{c,d}', '{b,d}'),
        ('{a,b,d}', '{a,b,d}'),
        ('{a,c}', '{a,c}'),
        ('{a,b,c}', '{c}'),
        ('{b,d}', '{c}'),
        ('{a,d}', '{b}'),
        ('{a,d}', '{a,b}'),
        ('{a}', '{a,b,c}'),
        ('{a}', '{a,d}'),
        ('{b,d}', '{a}'),
        ('{a,b,c,d}', '{b,d}'),
        ('{d}', '{c,d}'),
        ('{a,c,d}', '{a,b,c,d}'),
        ('empty', '{b,c,d}'),
    ],
    'enum-random-set': [
        ('{c,d}', '{a,c,d}'),
        ('{a,d,e}', '{a,d,e}'),
        ('{c,d}', '{c}'),
        ('{a,c}', '{a,b,d,e}'),
        ('{a,b,c,d,e}', '{a,e}'),
        ('empty', '{b,c}'),
        ('{c,d,e}', '{b,d}'),
        ('{a,b,d}', '{a,b,d,e}'),
        ('{a,c,e}', '{a,c,e}'),
        ('{a,b,c,e}', '{c}'),
        ('{b,d}', '{c,e}'),
        ('{a,d}', '{b}'),
        ('{a,d,e}', '{a,b}'),
        ('{a,e}', '{a,b,c,e}'),
        ('{a,e}', '{a,d}'),
        ('{b,d}', '{a}'),
        ('{a,b,c,d,e}', '{b,d,e}'),
        ('{d}', '{c,d,e}'),
        ('{a,c,d,e}', '{a,b,c,d,e}'),
        ('{e}', '{b,c,d,e}'),
    ],
    'finite-product-opens': [
        ('box({a} ; {a,c})', 'box({a} ; {d})'),
        ('empty', 'empty'),
        ('empty', 'empty'),
        ('empty', 'box({a} ; {a,b,c,d}) u box({b} ; {a,c})'),
        ('empty', 'empty'),
        ('empty', 'box({a} ; {b,c,d})'),
        ('box({a,b} ; {a,c})', 'box({a,b} ; {b})'),
        ('empty', 'box({a,b} ; {a,b})'),
        ('empty', 'box({a} ; {a,c,d})'),
        ('box({a,b} ; {a,b,d})', 'box({a} ; {b,c,d})'),
        ('box({a,b} ; {b,c,d})', 'box({a,b} ; {a,b,c,d})'),
        ('box({a,b} ; {c})', 'box({a,b} ; {c,d})'),
        ('box({a} ; {c,d})', 'empty'),
        ('box({a} ; {d})', 'empty'),
        ('empty', 'box({a,b} ; {c})'),
        ('empty', 'empty'),
        ('box({a} ; {a,b,c,d})', 'empty'),
        ('box({a,b} ; {a,c})', 'box({a} ; {d})'),
        ('empty', 'empty'),
        ('box({a} ; {c,d})', 'empty'),
    ],
    'finite-product-random-set': [
        ('box(box({x} ; {x}) ; {r})', 'empty'),
        ('empty', 'box(box({x,y} ; {x}) ; {p})'),
        ('empty', 'empty'),
        ('empty', 'box(box({x} ; {x}) ; {p})'),
        ('empty', 'empty'),
        ('empty', 'empty'),
        ('box(box({x,y} ; {x}) ; {r})', 'box(box({x,y} ; {y}) ; {p,q})'),
        ('empty', 'empty'),
        ('empty', 'box(box({x} ; {x,y}) ; {q})'),
        ('box(box({x,y} ; {y}) ; {q,r})', 'box(box({y} ; {x,y}) ; {p})'),
        ('empty', 'empty'),
        ('box(box({x} ; {x}) ; {p,q,r})', 'box(box({x,y} ; {x}) ; {p,q})'),
        ('empty',
         'box(box({x} ; {x}) ; {p,q,r}) u box(box({x} ; {y}) ; {q,r}) u '
         'box(box({y} ; {x}) ; {p})'),
        ('empty', 'empty'),
        ('empty', 'box(box({x} ; {x,y}) ; {q,r}) u box(box({y} ; {x,y}) ; {q})'),
        ('empty', 'empty'),
        ('box(box({x,y} ; {x,y}) ; {q})', 'empty'),
        ('empty', 'empty'),
        ('empty', 'empty'),
        ('empty', 'empty'),
    ],
}


@pytest.mark.parametrize("kind", sorted(DRAWS))
def test_seeded_draws_render_as_recorded(kind):
    draw = DRAWS[kind]
    for seed, expected in enumerate(RENDERS[kind]):
        rng = random.Random(seed)
        assert (sx.render(draw(rng)), sx.render(draw(rng))) == expected, seed
