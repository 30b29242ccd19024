"""Feature separation and alignment toolkit on synthetic two-domain data.

Modules:
  scale_space  -- scale-space filtering clustering of 2-D points
  grouping     -- center-format boxes as (P, 4) arrays (IoU, box deltas),
                  proposal grouping by box-center clustering, outlier removal
  losses       -- difference / reconstruction / focal / adversarial losses
  autodiff     -- minimal reverse-mode engine backing the toy network
  network      -- toy detector with private encoders and domain classifiers
  synth        -- deterministic two-domain synthetic detection corpus
  training     -- adversarial min-max training loop and evaluation probes
  cli          -- command-line front end
"""

__version__ = "0.1.0"
