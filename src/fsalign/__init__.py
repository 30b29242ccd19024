"""Feature separation and alignment toolkit on synthetic two-domain data.

Modules:
  specs        -- field checks shared by the config specs
  boxes        -- center-format boxes as (P, 4) arrays (IoU, box deltas)
                  and an image's proposal set
  scale_space  -- scale-space filtering clustering of 2-D points
  grouping     -- proposal grouping by box-center clustering, outlier removal
  losses       -- difference / reconstruction / focal / adversarial loss terms
  autodiff     -- minimal reverse-mode engine backing the toy network
  network      -- toy detector with private encoders and domain classifiers
  synth        -- deterministic two-domain synthetic detection corpus
  training     -- adversarial min-max training loop, evaluation probes and
                  the finite-difference gradient check
  cli          -- command-line front end

Importing the package sets the process's heap policy (`keep_heap_pages`).
"""

import ctypes

__version__ = "0.1.0"

# glibc's mallopt parameter numbers (<malloc.h>)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
# the ceiling of glibc's dynamic mmap threshold on 64-bit
# (DEFAULT_MMAP_THRESHOLD_MAX), and the trim threshold it pairs with it
MMAP_THRESHOLD_BYTES = 32 << 20
TRIM_THRESHOLD_BYTES = 2 * MMAP_THRESHOLD_BYTES


def keep_heap_pages():
    """Fix glibc's heap policy where its own heuristic would end up: serve
    blocks below MMAP_THRESHOLD_BYTES from the heap, and give free pages at
    the heap top back to the kernel only past TRIM_THRESHOLD_BYTES. Returns
    whether the policy is set; where the C library is not glibc, has no
    `mallopt` or refuses the values, it does nothing and returns False. The
    package calls it once, when it is imported.

    Why: a train step builds its graph, frees it and builds it again. glibc
    starts with both thresholds low (128 KiB) and raises them only when it
    frees a block it had mapped on its own, so how low they still are
    depends on the process's heap history, not on the code it runs. While
    they are low, freeing a step's graph trims the heap top, or unmaps its
    large blocks, and the next step faults those pages back in: ~200-315
    minor faults per step at the default network and 64x64 canvas, and
    0.4-1.4 s of system time in a 30 s benchmark process. So the speed of
    unchanged code moved between processes.

    Why these values: they are the ceiling glibc's heuristic raises the two
    thresholds to, so a process starts where a long-running one may end.
    Setting any mallopt parameter stops the heuristic, which is why both
    are set. Unlike a top pad, which must be sized to the step, fixed
    thresholds hold at every canvas size, and as the heap keeps only pages
    the process has already used, peak memory does not grow.
    """
    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):  # no C library loaded as the process's own
        return False
    # the parameter numbers are glibc's, so no other C library's mallopt is called
    if not (hasattr(libc, "gnu_get_libc_version") and hasattr(libc, "mallopt")):
        return False
    mallopt = libc.mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # glibc refuses the mmap threshold on 32-bit, before anything is set
    return (mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES) == 1
            and mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES) == 1)


keep_heap_pages()
