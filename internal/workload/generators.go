package workload

// DNAAlphabet is the four-letter alphabet used for sequence-alignment
// workloads.
const DNAAlphabet = "ACGT"

// ASCIIAlphabet is a 26-letter alphabet for edit-distance workloads.
const ASCIIAlphabet = "abcdefghijklmnopqrstuvwxyz"

// RandomString returns a pseudo-random string of length n over the given
// alphabet.
func RandomString(seed uint64, n int, alphabet string) string {
	if n < 0 {
		panic("workload: negative string length")
	}
	r := NewRNG(seed)
	b := make([]byte, n)
	for i := range b {
		b[i] = alphabet[r.Intn(len(alphabet))]
	}
	return string(b)
}

// SimilarStrings returns two strings of length n over the alphabet where
// the second is the first with roughly mutationRate of its positions
// changed — a realistic alignment workload (near-identical sequences),
// unlike two independent random strings.
func SimilarStrings(seed uint64, n int, alphabet string, mutationRate float64) (string, string) {
	a := RandomString(seed, n, alphabet)
	r := NewRNG(seed ^ 0xdeadbeefcafef00d)
	b := []byte(a)
	for i := range b {
		if r.Float64() < mutationRate {
			b[i] = alphabet[r.Intn(len(alphabet))]
		}
	}
	return a, string(b)
}

// GrayImage returns a rows x cols 8-bit grayscale image with smooth
// low-frequency structure plus noise — the kind of content error-diffusion
// dithering is used on. Values are row-major.
func GrayImage(seed uint64, rows, cols int) [][]uint8 {
	r := NewRNG(seed)
	img := make([][]uint8, rows)
	for i := range img {
		img[i] = make([]uint8, cols)
		for j := range img[i] {
			// A diagonal gradient with +-24 levels of noise.
			base := (i*255/(rows+1) + j*255/(cols+1)) / 2
			noise := r.Intn(49) - 24
			v := base + noise
			if v < 0 {
				v = 0
			}
			if v > 255 {
				v = 255
			}
			img[i][j] = uint8(v)
		}
	}
	return img
}

// CostGrid returns a rows x cols grid of non-negative integer costs in
// [1, maxCost] for shortest-path workloads like the checkerboard problem.
func CostGrid(seed uint64, rows, cols, maxCost int) [][]int32 {
	if maxCost < 1 {
		panic("workload: maxCost must be >= 1")
	}
	r := NewRNG(seed)
	g := make([][]int32, rows)
	for i := range g {
		g[i] = make([]int32, cols)
		for j := range g[i] {
			g[i][j] = int32(1 + r.Intn(maxCost))
		}
	}
	return g
}

// CostWindow returns rows [r0, r1) x cols [c0, c1) of
// CostGrid(seed, rows, cols, maxCost), row-major in one flat slice,
// bit-identical to the full grid's values. CostGrid spends one draw per
// cell in row-major order, so cell (i, j) is draw i*cols+j+1 and the
// window costs O(window cells) whatever the table's size (rows itself
// only bounds the window and is not needed).
func CostWindow(seed uint64, cols, maxCost, r0, r1, c0, c1 int) []int64 {
	if maxCost < 1 {
		panic("workload: maxCost must be >= 1")
	}
	if r0 < 0 || r0 > r1 || c0 < 0 || c0 > c1 || c1 > cols {
		panic("workload: cost window outside the grid")
	}
	w := c1 - c0
	out := make([]int64, (r1-r0)*w)
	for i := r0; i < r1; i++ {
		state := seed + uint64(i*cols+c0)*gamma
		row := out[(i-r0)*w : (i-r0+1)*w]
		for j := range row {
			state += gamma
			row[j] = int64(int32(1 + mix(state)%uint64(maxCost)))
		}
	}
	return out
}

// TimeSeries returns a length-n series that random-walks within [lo, hi],
// a realistic dynamic-time-warping workload.
func TimeSeries(seed uint64, n int, lo, hi float64) []float64 {
	r := NewRNG(seed)
	s := make([]float64, n)
	v := (lo + hi) / 2
	span := (hi - lo) / 20
	for i := range s {
		v += (r.Float64() - 0.5) * span
		if v < lo {
			v = lo
		}
		if v > hi {
			v = hi
		}
		s[i] = v
	}
	return s
}

// EnergyGrid returns a rows x cols grid of pixel "energies" for the
// seam-carving workload: mostly low values with occasional high-energy
// edges, mimicking image gradients.
func EnergyGrid(seed uint64, rows, cols int) [][]int32 {
	r := NewRNG(seed)
	g := make([][]int32, rows)
	for i := range g {
		g[i] = make([]int32, cols)
		for j := range g[i] {
			v := int32(r.Intn(32))
			if r.Intn(16) == 0 {
				v += int32(128 + r.Intn(128)) // an "edge"
			}
			g[i][j] = v
		}
	}
	return g
}
