// Package core defines the ETSC evaluation framework that is the paper's
// primary contribution: the early-classifier contract, the voting wrapper
// that lifts univariate algorithms to multivariate data, the dataset
// categorizer behind Table 3, an extensible algorithm registry, and the
// cross-validated evaluation runner that produces the measurements behind
// Figures 9-13.
package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	ts "github.com/goetsc/goetsc/internal/timeseries"
)

// EarlyClassifier is the contract every ETSC algorithm implements.
//
// Fit trains on complete labeled series. Classify receives one unlabeled
// test instance and decides, scanning prefixes of its own choosing, when to
// commit to a class: it returns the predicted label and the number of time
// points it consumed before committing (consumed == length means the full
// series was needed). Implementations must be usable for repeated Classify
// calls after a single Fit.
type EarlyClassifier interface {
	// Name identifies the algorithm in reports (e.g. "ECEC", "S-MINI").
	Name() string
	// Fit trains the classifier on the training dataset.
	Fit(train *ts.Dataset) error
	// Classify predicts the label of one instance, reporting how many
	// time points were consumed.
	Classify(instance ts.Instance) (label, consumed int)
}

// MultivariateCapable marks algorithms that natively consume multivariate
// instances. Algorithms without this capability are lifted with the Voting
// wrapper by the evaluation runner (paper Section 6.1).
type MultivariateCapable interface {
	Multivariate() bool
}

// BatchClassifier is implemented by algorithms that can classify many
// instances in one call, sharing transform scratch (and a worker pool)
// across the batch. ClassifyBatch fills labels[i] and consumed[i] with
// exactly what ClassifyIncremental would report for instances[i]; both
// slices must have len(instances). The evaluation runner's scoring loop
// prefers this path when available.
type BatchClassifier interface {
	EarlyClassifier
	ClassifyBatch(instances []ts.Instance, labels, consumed []int)
}

// Stoppable marks algorithms whose Fit can be aborted cooperatively. The
// evaluation runner calls Stop when a training budget expires so that the
// abandoned goroutine stops consuming CPU (goroutines cannot be killed);
// the interrupted Fit should return promptly with an error.
type Stoppable interface {
	Stop()
}

// IsMultivariate reports whether the algorithm natively handles
// multivariate data.
func IsMultivariate(c EarlyClassifier) bool {
	if m, ok := c.(MultivariateCapable); ok {
		return m.Multivariate()
	}
	return false
}

// Voting lifts a univariate EarlyClassifier to multivariate datasets by
// training one instance of the algorithm per variable and combining their
// outputs: the most popular label wins, it is assigned the WORST (largest)
// earliness among the voters, and ties select the first label in voter
// order — exactly the scheme of Section 6.1.
type Voting struct {
	// NewVoter creates a fresh underlying classifier for one variable.
	NewVoter func() EarlyClassifier

	voters  []EarlyClassifier
	name    string
	stopped atomic.Bool
	mu      sync.Mutex
	active  EarlyClassifier // voter currently in Fit (for Stop propagation)
}

// NewVoting wraps the given factory.
func NewVoting(factory func() EarlyClassifier) *Voting {
	return &Voting{NewVoter: factory}
}

// Name returns the underlying algorithm's name (votes are an evaluation
// device, not a separate algorithm).
func (v *Voting) Name() string {
	if v.name != "" {
		return v.name
	}
	return v.NewVoter().Name()
}

// Multivariate reports true: the wrapper exists to consume multivariate
// data.
func (v *Voting) Multivariate() bool { return true }

// Fit trains one voter per variable on the variable's univariate
// projection. A concurrent Stop aborts between voters and is propagated to
// the voter currently training.
func (v *Voting) Fit(train *ts.Dataset) error {
	nVars := train.NumVars()
	if nVars == 0 {
		return fmt.Errorf("voting: dataset %q has no variables", train.Name)
	}
	v.voters = make([]EarlyClassifier, nVars)
	for variable := 0; variable < nVars; variable++ {
		if v.stopped.Load() {
			return fmt.Errorf("voting: training aborted (budget exceeded)")
		}
		voter := v.NewVoter()
		if v.name == "" {
			v.name = voter.Name()
		}
		v.mu.Lock()
		v.active = voter
		v.mu.Unlock()
		err := voter.Fit(train.Univariate(variable))
		v.mu.Lock()
		v.active = nil
		v.mu.Unlock()
		if err != nil {
			return fmt.Errorf("voting: variable %d: %w", variable, err)
		}
		v.voters[variable] = voter
	}
	return nil
}

// Stop propagates a budget abort to the voter currently training
// (core.Stoppable). Safe to call concurrently with Fit.
func (v *Voting) Stop() {
	v.stopped.Store(true)
	v.mu.Lock()
	active := v.active
	v.mu.Unlock()
	if s, ok := active.(Stoppable); ok {
		s.Stop()
	}
}

// Classify collects one vote per variable and applies the combination rule.
// Voters with incremental cursors are classified through them — identical
// results by the cursor contract, one prefix sweep instead of L.
func (v *Voting) Classify(instance ts.Instance) (int, int) {
	votes := make([]int, len(v.voters))
	worst := 0
	for variable, voter := range v.voters {
		label, consumed := ClassifyIncremental(voter, instance.Variable(variable))
		votes[variable] = label
		if consumed > worst {
			worst = consumed
		}
	}
	best, _ := majorityVote(votes)
	return best, worst
}

// majorityVote returns the most frequent label; the first label in voter
// order wins ties (strictly-greater update). Voter counts are tiny (one
// per variable), so the quadratic scan beats a map and allocates
// nothing — the property the zero-alloc cursor path gates on.
func majorityVote(votes []int) (best, bestCount int) {
	best = votes[0]
	for _, label := range votes { // voter order resolves ties
		count := 0
		for _, other := range votes {
			if other == label {
				count++
			}
		}
		if count > bestCount {
			best, bestCount = label, count
		}
	}
	return best, bestCount
}

// Factory creates a fresh, untrained EarlyClassifier.
type Factory func() EarlyClassifier

// Registry maps algorithm names to factories, the extension point of
// Section 5.5: registering a name makes the algorithm available to the
// benchmark harness and CLI.
type Registry struct {
	factories map[string]Factory
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{factories: map[string]Factory{}} }

// Register adds an algorithm under the given name. Re-registering a name
// returns an error to catch accidental collisions.
func (r *Registry) Register(name string, f Factory) error {
	if name == "" || f == nil {
		return fmt.Errorf("registry: name and factory are required")
	}
	if _, exists := r.factories[name]; exists {
		return fmt.Errorf("registry: %q already registered", name)
	}
	r.factories[name] = f
	return nil
}

// New instantiates a registered algorithm.
func (r *Registry) New(name string) (EarlyClassifier, error) {
	f, ok := r.factories[name]
	if !ok {
		return nil, fmt.Errorf("registry: unknown algorithm %q (have %v)", name, r.Names())
	}
	return f(), nil
}

// Factory returns the factory registered under name.
func (r *Registry) Factory(name string) (Factory, error) {
	f, ok := r.factories[name]
	if !ok {
		return nil, fmt.Errorf("registry: unknown algorithm %q (have %v)", name, r.Names())
	}
	return f, nil
}

// Names lists registered algorithm names in sorted order.
func (r *Registry) Names() []string {
	out := make([]string, 0, len(r.factories))
	for name := range r.factories {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
