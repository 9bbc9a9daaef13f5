// Package mlstm assembles the MLSTM-FCN classifier of Karim et al. (Neural
// Networks 2019) from the neural substrate: a fully-convolutional branch
// (three Conv1D blocks with channel normalization, ReLU and squeeze-excite
// on the first two) pooled globally, concatenated with an LSTM branch fed
// the dimension-shuffled series, followed by a softmax head.
//
// Deviations from the Keras original, documented in DESIGN.md: batch
// normalization is replaced by per-sample channel normalization (training
// is sample-sequential), the attention variant of the LSTM is not used, and
// the default filter counts are scaled down from (128, 256, 128) for
// pure-Go tractability; the original sizes remain available via Config.
package mlstm

import (
	"fmt"
	"math/rand"

	"github.com/goetsc/goetsc/internal/neural"
	"github.com/goetsc/goetsc/internal/stats"
)

// Config holds the architecture and training hyper-parameters.
type Config struct {
	// Filters are the three FCN block widths; default (16, 32, 16).
	Filters [3]int
	// Cells is the LSTM hidden size; default 8. The paper grid-searches
	// {8, 64, 128} (done by strut.FitGridCells for S-MLSTM).
	Cells int
	// Epochs is the number of training passes; default 20.
	Epochs int
	// BatchSize is the gradient-accumulation batch; default 16.
	BatchSize int
	// LearningRate is Adam's step size; default 1e-3.
	LearningRate float64
	// DropoutRate applies to the LSTM branch output; default 0.3.
	DropoutRate float64
	// Attention pools all LSTM hidden states with additive attention (the
	// paper's MALSTM-FCN variant) instead of keeping only the final one.
	Attention bool
	// Seed drives initialization, shuffling and dropout.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Filters == [3]int{} {
		c.Filters = [3]int{16, 32, 16}
	}
	if c.Cells <= 0 {
		c.Cells = 8
	}
	if c.Epochs <= 0 {
		c.Epochs = 30
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 16
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 3e-3
	}
	if c.DropoutRate <= 0 {
		c.DropoutRate = 0.3
	}
	return c
}

// Model is a trainable MLSTM-FCN classifier.
type Model struct {
	Cfg Config

	cfg        Config
	numClasses int
	numVars    int
	trainLen   int

	conv1, conv2, conv3 *neural.Conv1D
	norm1, norm2, norm3 *neural.ChannelNorm
	relu1, relu2, relu3 *neural.ReLU
	se1, se2            *neural.SqueezeExcite
	gap                 *neural.GlobalAvgPool
	lstm                *neural.LSTM
	attn                *neural.Attention
	drop                *neural.Dropout
	head                *neural.Dense
	loss                *neural.SoftmaxCrossEntropy
	opt                 *neural.Adam

	// Training-path buffers, reused across samples like the layers' own.
	shuffled [][]float64
	concat   []float64
}

// New returns an untrained model.
func New(cfg Config) *Model { return &Model{Cfg: cfg} }

// Fit trains on instances indexed [instance][variable][time].
func (m *Model) Fit(instances [][][]float64, labels []int, numClasses int) error {
	if len(instances) == 0 {
		return fmt.Errorf("mlstm: no instances")
	}
	if len(instances) != len(labels) {
		return fmt.Errorf("mlstm: %d instances but %d labels", len(instances), len(labels))
	}
	if numClasses < 2 {
		return fmt.Errorf("mlstm: need at least 2 classes, got %d", numClasses)
	}
	cfg := m.Cfg.withDefaults()
	m.cfg = cfg
	m.numClasses = numClasses
	m.numVars = len(instances[0])
	if m.numVars == 0 {
		return fmt.Errorf("mlstm: instances have no variables")
	}
	m.trainLen = 0
	for _, inst := range instances {
		if len(inst) != m.numVars {
			return fmt.Errorf("mlstm: inconsistent variable counts")
		}
		if l := len(inst[0]); l > m.trainLen {
			m.trainLen = l
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	m.build(rng)
	m.opt = neural.NewAdam(m.params(), cfg.LearningRate)

	order := make([]int, len(instances))
	for i := range order {
		order[i] = i
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		inBatch := 0
		for _, idx := range order {
			m.forwardBackward(instances[idx], labels[idx])
			inBatch++
			if inBatch == cfg.BatchSize {
				m.opt.Step(inBatch)
				inBatch = 0
			}
		}
		if inBatch > 0 {
			m.opt.Step(inBatch)
		}
	}
	return nil
}

// build constructs the network layers from the resolved configuration and
// the architectural dimensions (numClasses, numVars, trainLen), which must
// already be set. It is shared by Fit and by gob decoding, which rebuilds
// the same structure and then overwrites the freshly initialized weights.
func (m *Model) build(rng *rand.Rand) {
	f := m.cfg.Filters
	m.conv1 = neural.NewConv1D(m.numVars, f[0], 8, rng)
	m.norm1 = neural.NewChannelNorm(f[0])
	m.relu1 = &neural.ReLU{}
	m.se1 = neural.NewSqueezeExcite(f[0], 4, rng)
	m.conv2 = neural.NewConv1D(f[0], f[1], 5, rng)
	m.norm2 = neural.NewChannelNorm(f[1])
	m.relu2 = &neural.ReLU{}
	m.se2 = neural.NewSqueezeExcite(f[1], 4, rng)
	m.conv3 = neural.NewConv1D(f[1], f[2], 3, rng)
	m.norm3 = neural.NewChannelNorm(f[2])
	m.relu3 = &neural.ReLU{}
	m.gap = &neural.GlobalAvgPool{}
	m.lstm = neural.NewLSTM(m.trainLen, m.cfg.Cells, rng)
	if m.cfg.Attention {
		m.attn = neural.NewAttention(m.cfg.Cells, m.cfg.Cells, rng)
	}
	m.drop = neural.NewDropout(m.cfg.DropoutRate, rng)
	m.head = neural.NewDense(f[2]+m.cfg.Cells, m.numClasses, rng)
	m.loss = &neural.SoftmaxCrossEntropy{}
}

// params collects every learnable parameter in a fixed layer order, shared
// by the optimizer and by serialization.
func (m *Model) params() []*neural.Param {
	layers := []interface{ Params() []*neural.Param }{
		m.conv1, m.norm1, m.se1, m.conv2, m.norm2, m.se2, m.conv3, m.norm3, m.lstm, m.head,
	}
	if m.attn != nil {
		layers = append(layers, m.attn)
	}
	var params []*neural.Param
	for _, l := range layers {
		params = append(params, l.Params()...)
	}
	return params
}

// forwardBackward runs one training sample through the network and
// accumulates gradients. Every layer reuses its own buffers on this path,
// so a step allocates nothing once they fit the longest sample.
func (m *Model) forwardBackward(instance [][]float64, label int) {
	fcnOut, lstmOut := m.forward(instance, true)
	m.concat = append(append(m.concat[:0], fcnOut...), lstmOut...)
	logits := m.head.ForwardVec(m.concat, true)
	m.loss.Forward(logits, label)
	dLogits := m.loss.Backward()
	dConcat := m.head.BackwardVec(dLogits)
	dFCN := dConcat[:len(fcnOut)]
	dLSTM := dConcat[len(fcnOut):]

	// LSTM branch backward.
	dDrop := m.drop.BackwardVec(dLSTM)
	if m.attn != nil {
		dhs := m.attn.BackwardSeq(dDrop)
		m.lstm.BackwardSeqAll(dhs)
	} else {
		m.lstm.BackwardSeq(dDrop)
	}

	// FCN branch backward.
	g := m.gap.Backward(dFCN)
	g = m.relu3.Backward(g)
	g = m.norm3.Backward(g)
	g = m.conv3.Backward(g)
	g = m.se2.Backward(g)
	g = m.relu2.Backward(g)
	g = m.norm2.Backward(g)
	g = m.conv2.Backward(g)
	g = m.se1.Backward(g)
	g = m.relu1.Backward(g)
	g = m.norm1.Backward(g)
	m.conv1.Backward(g)
}

// forward computes both branch outputs. With train set they live in
// buffers the layers reuse on the next training sample; otherwise they
// are freshly allocated, so concurrent inference calls share no memory.
func (m *Model) forward(instance [][]float64, train bool) (fcn, lstmOut []float64) {
	x := m.conv1.Forward(instance, train)
	x = m.norm1.Forward(x, train)
	x = m.relu1.Forward(x, train)
	x = m.se1.Forward(x, train)
	x = m.conv2.Forward(x, train)
	x = m.norm2.Forward(x, train)
	x = m.relu2.Forward(x, train)
	x = m.se2.Forward(x, train)
	x = m.conv3.Forward(x, train)
	x = m.norm3.Forward(x, train)
	x = m.relu3.Forward(x, train)
	fcn = m.gap.Forward(x, train)

	// Dimension shuffle: the LSTM sees numVars steps, each a vector of the
	// series values over time (zero-padded to the training length).
	shuffled := m.shuffled
	if !train || len(shuffled) != m.numVars || len(shuffled[0]) != m.trainLen {
		shuffled = make([][]float64, m.numVars)
		for v := range shuffled {
			shuffled[v] = make([]float64, m.trainLen)
		}
		if train {
			m.shuffled = shuffled
		}
	}
	for v, step := range shuffled {
		n := 0
		if v < len(instance) {
			n = copy(step, instance[v])
		}
		clear(step[n:])
	}
	var h []float64
	if m.attn != nil {
		hs := m.lstm.ForwardSeqAll(shuffled, train)
		h = m.attn.ForwardSeq(hs, train)
	} else {
		h = m.lstm.ForwardSeq(shuffled, train)
	}
	lstmOut = m.drop.ForwardVec(h, train)
	return fcn, lstmOut
}

// PredictProba returns class probabilities for one instance. It is safe
// for concurrent use on a trained model.
func (m *Model) PredictProba(instance [][]float64) []float64 {
	fcnOut, lstmOut := m.forward(instance, false)
	concat := append(append([]float64(nil), fcnOut...), lstmOut...)
	logits := m.head.ForwardVec(concat, false)
	return stats.Softmax(logits, nil)
}

// Predict returns the most probable class for one instance.
func (m *Model) Predict(instance [][]float64) int {
	return stats.ArgMax(m.PredictProba(instance))
}
