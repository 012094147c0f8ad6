// Package workload provides the request classes and generators used by the
// evaluation: the Azure-trace-derived Short/Medium/Long classes of the
// endurance study (§6.6, citing [84]) and a deterministic mixed-trace
// generator for the offline-batch examples.
package workload

import (
	"fmt"
	"math/rand"
)

// Class is a request shape: prompt length and generated length.
type Class struct {
	Name   string
	Input  int
	Output int
}

// The §6.6 request classes (I = input tokens, O = output tokens).
var (
	Short  = Class{Name: "Short", Input: 256, Output: 100}
	Medium = Class{Name: "Medium", Input: 1024, Output: 350}
	Long   = Class{Name: "Long", Input: 8192, Output: 350}
)

// Classes returns the endurance-study classes in figure order.
func Classes() []Class { return []Class{Short, Medium, Long} }

// Mix is a probability mix over classes.
type Mix struct {
	Class  Class
	Weight float64
}

// AzureLikeMix approximates production offline traffic: mostly short
// requests with a long-context tail.
func AzureLikeMix() []Mix {
	return []Mix{
		{Short, 0.60},
		{Medium, 0.30},
		{Long, 0.10},
	}
}

// Generator draws request classes from a mix, deterministically per seed.
type Generator struct {
	rng *rand.Rand
	mix []Mix
	sum float64
}

// NewGenerator validates the mix and returns a generator.
func NewGenerator(seed int64, mix []Mix) (*Generator, error) {
	if len(mix) == 0 {
		return nil, fmt.Errorf("workload: empty mix")
	}
	var sum float64
	for _, m := range mix {
		if m.Weight < 0 {
			return nil, fmt.Errorf("workload: negative weight for %s", m.Class.Name)
		}
		sum += m.Weight
	}
	if sum <= 0 {
		return nil, fmt.Errorf("workload: zero total weight")
	}
	return &Generator{rng: rand.New(rand.NewSource(seed)), mix: mix, sum: sum}, nil
}

// Next draws the next request class.
func (g *Generator) Next() Class {
	x := g.rng.Float64() * g.sum
	for _, m := range g.mix {
		if x < m.Weight {
			return m.Class
		}
		x -= m.Weight
	}
	return g.mix[len(g.mix)-1].Class
}

// Trace draws n requests.
func (g *Generator) Trace(n int) []Class {
	out := make([]Class, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}
