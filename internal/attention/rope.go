package attention

import (
	"fmt"
	"math"
)

// RoPE applies rotary position embeddings (the paper's positional embedding
// in step B of the prefill procedure; §6.4 notes that X-cache regeneration
// must re-apply RoPE to regenerated keys, with the trigonometric tables
// cached so the overhead stays negligible [83]).
//
// For a vector of even dimension d at position p, dimension pair (2i, 2i+1)
// is rotated by angle p·base^(−2i/d).
type RoPE struct {
	dim  int
	base float64

	// cos/sin tables per position, extended lazily and reused across steps
	// (the "efficient caching strategy").
	cos [][]float32
	sin [][]float32
}

// NewRoPE returns a RoPE operator for head dimension dim (must be even).
func NewRoPE(dim int, base float64) (*RoPE, error) {
	if dim <= 0 || dim%2 != 0 {
		return nil, fmt.Errorf("attention: RoPE dim must be positive and even, got %d", dim)
	}
	if base <= 1 {
		return nil, fmt.Errorf("attention: RoPE base must exceed 1, got %v", base)
	}
	return &RoPE{dim: dim, base: base}, nil
}

// ensure extends the cached tables to cover position p.
func (r *RoPE) ensure(p int) {
	for len(r.cos) <= p {
		pos := len(r.cos)
		half := r.dim / 2
		c := make([]float32, half)
		s := make([]float32, half)
		for i := 0; i < half; i++ {
			theta := float64(pos) * math.Pow(r.base, -2*float64(i)/float64(r.dim))
			c[i] = float32(math.Cos(theta))
			s[i] = float32(math.Sin(theta))
		}
		r.cos = append(r.cos, c)
		r.sin = append(r.sin, s)
	}
}

// Apply rotates vec (length dim) in place for position pos.
func (r *RoPE) Apply(vec []float32, pos int) {
	if len(vec) != r.dim {
		panic(fmt.Sprintf("attention: RoPE vector length %d != dim %d", len(vec), r.dim))
	}
	if pos < 0 {
		panic(fmt.Sprintf("attention: negative RoPE position %d", pos))
	}
	r.ensure(pos)
	c, s := r.cos[pos], r.sin[pos]
	for i := 0; i < r.dim/2; i++ {
		a, b := vec[2*i], vec[2*i+1]
		vec[2*i] = float32(a*c[i]) - float32(b*s[i])
		vec[2*i+1] = float32(a*s[i]) + float32(b*c[i])
	}
}
