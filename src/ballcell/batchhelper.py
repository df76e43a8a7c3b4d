"""The batch helper: a forked process that plays the second half of a batch.

`montecarlo._simulate_batch` sends an unrecorded batch here when
`montecarlo._splits` allows it.  This process plays trials 0..h-1 and its
helper plays trials h..trials-1, h = trials // 2, with the same chunk loop,
`montecarlo._play_trials`.  Trial i always runs on the stream at word
i + 1 of the batch stream, so the durations do not depend on which process
plays which trials.

The helper is forked on the first such batch and kept for the life of the
process that forked it.  It puts /dev/null on fds 0-2 and closes every
other fd it inherited but its two pipes, since os.fork copies all of them,
close-on-exec or not: a pipe, socket or lock of its caller's stays the
caller's alone.  It ignores SIGINT (the owner handles the interrupt) and
turns tracemalloc off.  It reads request lines "sequence r n seed first
stop" from one pipe, and on the other writes the sequence number and the
durations, each an unsigned 64-bit ``array`` word.  It exits on EOF, and
the owner's atexit handler kills and reaps it.

A mismatched sequence number, a short reply, EOF, an OSError or an
exception between request and reply retires the helper: the owner reaps it,
plays the share itself, and forks no other.  A process forked from the owner
(by multiprocessing, say) holds a copy of the owner's state; comparing
os.getpid() with the owner's pid, it neither uses nor reaps that helper,
drops its copies of the pipes and forks its own.
"""

import os
import sys
from array import array
from itertools import count

from .montecarlo import MASK64, _play_trials

# This process's helper: [owner pid, helper pid, request file, reply file].
# The owner pid is 0 before the first fork and the helper pid 0 once the
# helper has retired.
_helper: list = [0, 0, None, None]
_sequence = count(1)


def _serve(requests, replies) -> None:
    """The helper's loop, until EOF on `requests`."""
    for line in requests:
        sequence, r, n, seed, first, stop = map(int, line.split())
        replies.write(array("Q", [sequence, *_play_trials(r, n, seed, first, stop)[0]]))
        replies.flush()


def _start() -> None:
    """Fork this process's helper; if the pipes or the fork fail, it has
    retired.  This process's copies of the pipes of a helper inherited from
    the process that forked it are closed first."""
    import atexit
    import signal

    for file in filter(None, _helper[2:]):
        file.close()
    _helper[:] = [os.getpid(), 0, None, None]
    fds: list[int] = []
    try:
        fds += os.pipe()
        fds += os.pipe()
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        return
    requests, ask, answers, tell = fds
    if not pid:
        try:
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            tracemalloc = sys.modules.get("tracemalloc")
            if tracemalloc:
                tracemalloc.stop()
            null = os.open(os.devnull, os.O_RDWR)
            for fd in (0, 1, 2):
                os.dup2(null, fd)
            # Every fd above 2 goes but the pipes' two ends (a pipe that took
            # fd 0-2 is now /dev/null, and the owner sees EOF and retires).
            low, high = sorted((requests, tell))
            os.closerange(3, low)
            os.closerange(low + 1, high)
            os.closerange(high + 1, os.sysconf("SC_OPEN_MAX"))
            _serve(open(requests, "rb"), open(tell, "wb"))
        finally:
            os._exit(0)
    os.close(requests)
    os.close(tell)
    _helper[1:] = pid, open(ask, "wb", buffering=0), open(answers, "rb")
    atexit.register(retire)


def retire() -> None:
    """Close the pipes of this process's helper, kill and reap it, and fork
    no other in this process.  A helper forked by another process is left
    alone."""
    import signal

    owner, pid, *files = _helper
    if owner != os.getpid() or not pid:
        return
    _helper[1] = 0
    for file in files:
        file.close()
    try:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    except OSError:  # already reaped elsewhere
        pass


def _reply(answers, sequence: int, trials: int) -> array | None:
    """The helper's `trials` durations for request `sequence`, or None on a
    mismatched sequence number, a short reply, EOF or an OSError."""
    played = array("Q")
    try:
        reply = answers.read((1 + trials) * played.itemsize)
    except OSError:
        return None
    if len(reply) != (1 + trials) * played.itemsize:
        return None
    played.frombytes(reply)
    return played[1:] if played[0] == sequence else None


def durations(r: int, n: int, seed: int, trials: int) -> list[int]:
    """The durations of trials 0..trials-1 of the batch at `seed`, in trial
    order, trials h = trials // 2 on played by this process's helper."""
    if _helper[0] != os.getpid():
        _start()
    _, pid, ask, answers = _helper
    if not pid:
        return _play_trials(r, n, seed, 0, trials)[0]
    h, sequence = trials // 2, next(_sequence)
    try:
        ask.write(b"%d %d %d %d %d %d\n" % (sequence, r, n, seed & MASK64, h, trials))
    except OSError:
        sequence = 0  # no request went out: the share is played here
    try:
        played = _play_trials(r, n, seed, 0, h)[0]
        theirs = sequence and _reply(answers, sequence, trials - h)
    except BaseException:
        retire()
        raise
    if not theirs:
        retire()
        theirs = _play_trials(r, n, seed, h, trials)[0]
    played += theirs
    return played
