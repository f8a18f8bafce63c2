"""Expected results, computed in plain Python and never by the interpreter.

Every number the workloads feed the program is a multiple of 0.25 of
small magnitude, so each sum the script performs is exact in double
precision and a closed form here gives the same bits as the script's
sequential arithmetic.  Strings follow the language's number format,
"%.14g", which the demo host class uses as well.
"""


def fmt(x: float) -> str:
    return "%.14g" % x


def describe(v) -> str:
    """demo.MathUtil.describe: the float overload or the text overload."""
    if isinstance(v, float):
        return "number " + fmt(v)
    return "text " + v


# ------------------------------------------------ bridge_calls / native_script

def loop_returns(inp, j: int) -> list:
    """Values the loop chunk returns at the end of its j-th run (j >= 1):
    counter count, point x and y, the run's twice() sum and arr[1]."""
    k = len(inp.dx)
    return [float(2 * k * j),
            inp.x0 + j * sum(inp.dx),
            inp.y0 + j * sum(inp.dy),
            2.0 * sum(inp.dx),
            float(j * inp.w[0])]


def loop_log(inp) -> dict:
    """out_log after any run: describe() of each input, keyed 1..K."""
    return {float(i + 1): describe(v) for i, v in enumerate(inp.v)}


def loop_state(inp, j: int) -> list:
    """Observable state after j runs, in the order the reader chunk
    returns it: count, x, y, arr[1..K], out_log[1..K]."""
    count, x, y, _, _ = loop_returns(inp, j)
    log = loop_log(inp)
    return ([count, x, y]
            + [float(j * w) for w in inp.w]
            + [log[float(i + 1)] for i in range(len(inp.v))])


# ------------------------------------------------------------ host_callbacks

def speaker_returns(tag: str) -> dict:
    """What each demo.Speaker method returns for the script table: hello
    and wave are script-defined, bye falls through to the base class."""
    return {"hello": "script:hello",
            "wave": "script:wave:" + tag,
            "bye": "base:bye"}


def hits_increment(event: int, period: int) -> int:
    """Listener A adds 1 and listener B adds 10; the host swaps them
    every `period` events, starting with A."""
    return 1 if (event // period) % 2 == 0 else 10


def hits_total(events: int, period: int) -> int:
    """Sum of hits_increment over events 0 .. events-1."""
    blocks, rest = divmod(events, period)
    a_blocks, b_blocks = (blocks + 1) // 2, blocks // 2
    return (a_blocks + 10 * b_blocks) * period \
        + rest * (1 if blocks % 2 == 0 else 10)


# ------------------------------------------------------------- console_churn

# demo.BorderLayout's static fields, as the demo manifest declares them.
BORDER_SIDES = {"NORTH": "North", "SOUTH": "South", "EAST": "East",
                "WEST": "West", "CENTER": "Center"}


def fragment_result(f) -> object:
    """The result global a console fragment stores."""
    px = f.x + f.dx
    py = f.y + f.dy
    if f.numeric:
        return px * f.k + py + f.q
    return (f.title + ":" + str(f.q) + ":" + fmt(px - py) + ":"
            + BORDER_SIDES[f.side])
