// Package dataset provides the evaluation data substrate: a deterministic
// synthetic generator of SIFT-like descriptor vectors standing in for the
// ANN_SIFT1B corpus the paper uses (see DESIGN.md §7), plus
// exact ground-truth computation for recall checks.
//
// The generator produces 128-dimensional vectors from a clustered Gaussian
// mixture with per-cluster anisotropic spread, clamped to the non-negative
// integer-valued range of real SIFT descriptors. Clustered structure is
// what matters for reproducing the paper's behaviour: it yields
// non-uniform IVF partition sizes (its Table 3) and realistic distance
// distributions for the quantization bounds of §4.4.
package dataset

import (
	"fmt"

	"pqfastscan/internal/rng"
	"pqfastscan/internal/vec"
)

// SIFTDim is the dimensionality of SIFT descriptors used throughout the
// paper's evaluation ("Vectors of this dataset are SIFT descriptors of
// dimensionality 128", §5.1).
const SIFTDim = 128

// SIFTMax is the maximum component value of a SIFT descriptor.
const SIFTMax = 255

// Config parameterizes the synthetic generator.
type Config struct {
	Dim      int    // vector dimensionality (default SIFTDim)
	Clusters int    // number of mixture components (default 64)
	Seed     uint64 // master seed; all outputs are deterministic in it
	// ClusterSpreadMin/Max bound the per-cluster standard deviation,
	// drawn uniformly per cluster and scaled per dimension.
	ClusterSpreadMin float64
	ClusterSpreadMax float64
	// SubspaceMixing controls how strongly the 16-dimension sub-spaces
	// (the PQ sub-quantizer views) of one vector share cluster
	// membership. 1 means fully coherent clusters (every sub-space drawn
	// from the same mixture component); 0 means every sub-space picks its
	// component independently. Real SIFT descriptors sit in between:
	// gradient-orientation histogram blocks are only partially
	// correlated, and after IVF residualization the per-sub-quantizer
	// views decorrelate further. Default 0.5.
	SubspaceMixing float64
	// subspaceMixingSet records an explicit zero value.
	SubspaceMixingSet bool
}

func (c Config) withDefaults() Config {
	if c.Dim == 0 {
		c.Dim = SIFTDim
	}
	if c.Clusters == 0 {
		c.Clusters = 64
	}
	if c.ClusterSpreadMin == 0 {
		c.ClusterSpreadMin = 4
	}
	if c.ClusterSpreadMax == 0 {
		c.ClusterSpreadMax = 24
	}
	if c.SubspaceMixing == 0 && !c.SubspaceMixingSet {
		c.SubspaceMixing = 0.5
	}
	return c
}

// Generator synthesizes SIFT-like vectors from a fixed Gaussian mixture.
// Distinct Generate calls continue the same deterministic stream.
type Generator struct {
	cfg     Config
	means   vec.Matrix
	spreads []float32 // per cluster x dim standard deviations
	weights []float64 // cumulative cluster sampling weights
	src     *rng.Source
}

// NewGenerator builds the mixture for cfg.
func NewGenerator(cfg Config) *Generator {
	cfg = cfg.withDefaults()
	src := rng.New(cfg.Seed)
	mixSrc := src.Split()
	g := &Generator{
		cfg:     cfg,
		means:   vec.NewMatrix(cfg.Clusters, cfg.Dim),
		spreads: make([]float32, cfg.Clusters*cfg.Dim),
		weights: make([]float64, cfg.Clusters),
		src:     src,
	}
	total := 0.0
	for c := 0; c < cfg.Clusters; c++ {
		mean := g.means.Row(c)
		base := cfg.ClusterSpreadMin +
			mixSrc.Float64()*(cfg.ClusterSpreadMax-cfg.ClusterSpreadMin)
		for d := 0; d < cfg.Dim; d++ {
			// SIFT components are gradient-histogram bins: mostly small
			// values with occasional large peaks. A squared uniform gives
			// that skew.
			u := mixSrc.Float64()
			mean[d] = float32(u * u * SIFTMax)
			g.spreads[c*cfg.Dim+d] = float32(base * (0.5 + mixSrc.Float64()))
		}
		// Zipf-ish cluster popularity so partitions end up non-uniform.
		w := 1.0 / float64(c+1)
		total += w
		g.weights[c] = total
	}
	return g
}

// Generate appends n fresh vectors and returns them as a matrix.
func (g *Generator) Generate(n int) vec.Matrix {
	out := vec.NewMatrix(n, g.cfg.Dim)
	for i := 0; i < n; i++ {
		g.fill(out.Row(i))
	}
	return out
}

// subspaceDim is the granularity at which cluster membership may switch
// within one vector: the PQ 8x8 sub-vector width for 128-dim data.
const subspaceDim = 16

func (g *Generator) fill(dst []float32) {
	c := g.pickCluster()
	mean := g.means.Row(c)
	spread := g.spreads[c*g.cfg.Dim : (c+1)*g.cfg.Dim]
	for d := range dst {
		// At each sub-space boundary, possibly re-draw the mixture
		// component: SubspaceMixing is the probability of keeping the
		// vector's global component for this block.
		if d%subspaceDim == 0 && d > 0 && g.src.Float64() >= g.cfg.SubspaceMixing {
			alt := g.pickCluster()
			mean = g.means.Row(alt)
			spread = g.spreads[alt*g.cfg.Dim : (alt+1)*g.cfg.Dim]
		}
		v := float64(mean[d]) + g.src.NormFloat64()*float64(spread[d])
		if v < 0 {
			v = 0
		}
		if v > SIFTMax {
			v = SIFTMax
		}
		// Real SIFT descriptors are integer-valued (stored as bytes).
		dst[d] = float32(int(v))
	}
}

func (g *Generator) pickCluster() int {
	total := g.weights[len(g.weights)-1]
	target := g.src.Float64() * total
	lo, hi := 0, len(g.weights)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if g.weights[mid] < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// GroundTruth returns, for each query row, the ids of the k exact nearest
// base rows under squared L2 distance, sorted by ascending distance.
func GroundTruth(base, queries vec.Matrix, k int) ([][]int64, error) {
	if base.Dim != queries.Dim {
		return nil, fmt.Errorf("dataset: dimensionality mismatch %d vs %d", base.Dim, queries.Dim)
	}
	n := base.Rows()
	if k > n {
		return nil, fmt.Errorf("dataset: k=%d exceeds base size %d", k, n)
	}
	out := make([][]int64, queries.Rows())
	for qi := 0; qi < queries.Rows(); qi++ {
		q := queries.Row(qi)
		type cand struct {
			id int64
			d  float32
		}
		best := make([]cand, 0, k+1)
		for i := 0; i < n; i++ {
			d := vec.L2Squared(q, base.Row(i))
			if len(best) == k && d >= best[k-1].d {
				continue
			}
			// Insertion sort into the short candidate list.
			pos := len(best)
			for pos > 0 && (best[pos-1].d > d || (best[pos-1].d == d && best[pos-1].id > int64(i))) {
				pos--
			}
			best = append(best, cand{})
			copy(best[pos+1:], best[pos:])
			best[pos] = cand{id: int64(i), d: d}
			if len(best) > k {
				best = best[:k]
			}
		}
		ids := make([]int64, len(best))
		for i, c := range best {
			ids[i] = c.id
		}
		out[qi] = ids
	}
	return out, nil
}

// Recall computes recall@R: the fraction of queries whose true nearest
// neighbor (groundTruth[q][0]) appears among the first R returned ids.
func Recall(results [][]int64, groundTruth [][]int64, r int) float64 {
	if len(results) == 0 {
		return 0
	}
	hits := 0
	for q, res := range results {
		truth := groundTruth[q][0]
		limit := r
		if limit > len(res) {
			limit = len(res)
		}
		for _, id := range res[:limit] {
			if id == truth {
				hits++
				break
			}
		}
	}
	return float64(hits) / float64(len(results))
}
