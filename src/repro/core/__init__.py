"""The paper's primary contribution: training + inference services.

* :mod:`repro.core.tune` — distributed hyper-parameter tuning
  (Algorithm 1's ``Study`` and Algorithm 2's collaborative ``CoStudy``),
  the ``HyperSpace`` programming model, and the trial advisors (random
  search, grid search, Gaussian-process Bayesian optimisation);
* :mod:`repro.core.serve` — the inference service: SLO-aware greedy
  batching (Algorithm 3) and the reinforcement-learning controller that
  jointly picks the batch size and the ensemble (Section 5.2);
* :mod:`repro.core.system` — the unified Rafiki facade that wires both
  services over the shared substrates (cluster manager, parameter
  server, data store), enabling instant deployment after training.
"""
