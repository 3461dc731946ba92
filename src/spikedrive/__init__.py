"""spikedrive: event-driven spiking neural networks with spike-driven
attention, surrogate-gradient training, and theoretical energy profiling."""

from .attention import SDSAConfig, gen_qkv, sdsa1, sdsa2, sdsa3, sdsa4, vsa_reference
from .blocks import (ChannelConv, ChannelMLP, ConvBlock, Downsample, SepConv,
                     TransformerBlock, apply_shortcut, repconv_fold)
from .config import ModelConfig, TrainConfig, parse_config
from .energy import (EnergyReport, FiringRateReport, estimate_energy, flops_conv,
                     flops_mlp, load_rate_fixture, record_rates, sdsa_flops, vsa_flops)
from .errors import (ArgError, CheckpointError, ConfigError, DivergenceError,
                     EmptyTensorError, FoldError, InvalidEventError, KindError,
                     ParseError, ReportError, ShapeError, SpikeDriveError, TapeError)
from .estimator import SpikingClassifier
from .kernels import (ConvKernel, binary_matmul, dense_conv2d, dense_matmul,
                      event_conv2d, event_matmul, hadamard_mask, sum_columns)
from .model import (Model, build_model, count_params, forward, load_checkpoint,
                    save_checkpoint)
from .neuron import LIFParams, LIFState, lif_step, sn_forward, surrogate_grad
from .tensors import (DenseTensor, EventList, IntTensor, SpikeTensor, firing_rate,
                      from_events, kind_of, load_event_file, to_events)
from .train import (Dataset, OptimState, finetune_timesteps, loss, make_blobs,
                    step, train_toy)

__version__ = "0.1.0"
