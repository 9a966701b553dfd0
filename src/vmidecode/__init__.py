"""Offline visual-motion-imagery EEG decoding pipeline.

Library layout:

- core: domain types, trial timeline, epoching, synthetic-EEG oracle
- io: EEGB container format
- dsp: FFT, analytic signal, zero-phase band-pass, Welch PSD, ERSP
- connectivity: trial-averaged PLV, edge extraction, channel selection
- stats: paired t and the sign-flip permutation test
- csp: CSP + LDA one-vs-rest baseline
- neural: from-scratch CNN with backprop and sliding-window augmentation
- harness: cross-validation, channel sweeps, the config-driven pipeline
- pool: the thread pool of every stage whose rows are independent
"""

__version__ = "0.1.0"

from .core import (CLASS_NAMES, DEFAULT_CHANNELS, EegRecording, EpochSet,
                   Montage, SynthSpec, TrialTimeline, epoch_recording,
                   synth_dataset)
from .io import (load_epochs, load_recording, save_epochs, save_recording)
from .dsp import (Spectrum, TfMap, analytic_signal, bandpass,
                  bandpass_response, downsample, ersp, fft,
                  preprocess_recording, welch_psd)
from .connectivity import (ChannelRanking, ConnectivityMatrix, per_class_plv,
                           plv_matrix, rank_channels, select_channels,
                           strong_edges)
from .stats import (StatMap, band_power, paired_t, permutation_test, stat_map)
from .csp import (CspLdaClassifier, CspModel, LdaModel, csp_features, csp_fit,
                  lda_fit, lda_predict)
from .neural import (CnnClassifier, LayerSpec, ModelSpec, Network, TrainConfig,
                     build_model, load_network, predict_proba, predict_trial,
                     save_network, slide_windows, train)
from .harness import (EvalEntry, EvalReport, cross_validate, format_cell,
                      run_pipeline, stratified_folds, sweep)
from .errors import (ConfigError, CorruptionError, DataError, DivergenceError,
                     FormatError, PipelineError, RangeError, ShapeError,
                     StratificationError)
