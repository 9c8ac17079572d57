package rng

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/big"
	"strconv"
	"strings"
	"testing"
)

func newBig() *big.Float { return new(big.Float).SetPrec(refPrec) }

// bigLog returns ln x to about refPrec bits for finite x > 0: x = 2^e·m
// with m in [1/√2, √2), then ln m = 2·atanh(s), s = (m−1)/(m+1), by its
// series.
func bigLog(x *big.Float) *big.Float {
	m := newBig()
	e := x.MantExp(m) // m in [0.5, 1)
	if m.Cmp(big.NewFloat(math.Sqrt2/2)) < 0 {
		m.SetMantExp(m, 1)
		e--
	}
	one := big.NewFloat(1)
	s := newBig().Quo(newBig().Sub(m, one), newBig().Add(m, one))
	s2 := newBig().Mul(s, s)
	sum, pow, term := newBig(), newBig().Set(s), newBig()
	for j := int64(0); pow.Sign() != 0; j++ {
		term.Quo(pow, newBig().SetInt64(2*j+1))
		sum.Add(sum, term)
		if term.MantExp(nil) < sum.MantExp(nil)-refPrec-8 {
			break
		}
		pow.Mul(pow, s2)
	}
	sum.SetMantExp(sum, 1)
	return sum.Add(sum, newBig().Mul(bigLn2, newBig().SetInt64(int64(e))))
}

// logTableEntry builds entry i of logTab. The entry serves z in
// [zlo, zhi), the i-th of logN runs of equal bit width from 0x1.6p-1.
// Its invc is drawn from a seeded stream within 2^29 float64 steps of
// 2/(zlo+zhi), the reciprocal of the run's midpoint (which balances
// |z/c − 1| across the run; the draws move c by less than 2^-22 of
// itself), until two conditions hold for c = 1/invc:
//
//  1. clo = (c − chi) rounded lies within 2^-66 of a multiple of 2^-61,
//     so z − chi − clo rounds by less than 2^-66 for every z in the run
//     (z − chi is exact and below 2^-8 in magnitude);
//  2. ln c lies within 2^-66 of its float64 rounding logc.
//
// Both conditions are close to periodic in invc over short distances,
// and for a midpoint with few bits the two periods can exclude each
// other; draws across the wide window avoid that. Condition 1 is
// screened in float64 (1 − chi·invc is exact under FMA) and both are
// confirmed with math/big.
func logTableEntry(i int) (logEntry, error) {
	const off = 0x3fe6000000000000
	zlo := math.Float64frombits(off + uint64(i)<<45)
	zhi := math.Float64frombits(off + uint64(i+1)<<45)
	mid := newBig().Add(big.NewFloat(zlo), big.NewFloat(zhi))
	inv0, _ := mid.Quo(big.NewFloat(2), mid).Float64()
	l0 := bigLog(big.NewFloat(inv0))
	tol := big.NewFloat(0x1p-66)
	s := NewStream(Mix64(uint64(i)), 0x6c6f67)
	for n := 0; n < 1<<24; n++ {
		j := int64(s.Uint64()>>34) - 1<<29
		invc := math.Float64frombits(uint64(int64(math.Float64bits(inv0)) + j))
		chi := 1 / invc
		if m := math.FMA(-chi, invc, 1) / invc * 0x1p61; math.Abs(m-math.Round(m)) > 0x1.2p-5 {
			continue
		}
		c := newBig().Quo(big.NewFloat(1), big.NewFloat(invc))
		clo, _ := c.Sub(c, big.NewFloat(chi)).Float64()
		grid := newBig().SetMantExp(big.NewFloat(math.Round(clo*0x1p61)), -61)
		if grid.Sub(grid, big.NewFloat(clo)).Abs(grid).Cmp(tol) >= 0 {
			continue
		}
		// ln c = −ln invc = −ln inv0 − log1p(t), t = (invc − inv0)/inv0,
		// |t| < 2^-22: five series terms leave less than 2^-130.
		t := newBig().Sub(big.NewFloat(invc), big.NewFloat(inv0))
		t.Quo(t, big.NewFloat(inv0))
		lc, pow := newBig().Set(l0), newBig().SetInt64(1)
		for k := int64(1); k <= 5; k++ {
			pow.Mul(pow, t)
			term := newBig().Quo(pow, newBig().SetInt64(k))
			if k%2 == 0 {
				term.Neg(term)
			}
			lc.Add(lc, term)
		}
		lc.Neg(lc)
		logc, _ := lc.Float64()
		if res := newBig().Sub(lc, big.NewFloat(logc)); res.Abs(res).Cmp(tol) >= 0 {
			continue
		}
		return logEntry{invc: invc, logc: logc, chi: chi, clo: clo}, nil
	}
	return logEntry{}, fmt.Errorf("logTab[%d]: no candidate in 2^24 draws", i)
}

// logRRange returns the largest |z·invc − 1| over every table run.
func logRRange(tab *[logN]logEntry) *big.Float {
	const off = 0x3fe6000000000000
	worst := newBig()
	for i, e := range tab {
		for _, b := range []uint64{off + uint64(i)<<45, off + uint64(i+1)<<45} {
			r := newBig().Mul(big.NewFloat(math.Float64frombits(b)), big.NewFloat(e.invc))
			r.Sub(r, big.NewFloat(1)).Abs(r)
			if r.Cmp(worst) > 0 {
				worst = r
			}
		}
	}
	return worst
}

// remez returns the coefficients a_0..a_{n-1} of the polynomial P that
// minimises max |w(x)·(g(x) − P(x))| over the grid xs (g and w given at
// each grid point, w > 0), by the exchange algorithm: solve for the
// polynomial whose weighted error alternates with equal magnitude on a
// reference of n+1 grid points, move the reference to the extrema of
// that error, and repeat until the reference no longer changes. The
// arithmetic is all math/big, so the result is the same everywhere.
func remez(xs, g, w []*big.Float, n int) ([]*big.Float, float64) {
	ref := make([]int, n+1)
	for k := range ref {
		ref[k] = k * (len(xs) - 1) / n
	}
	errs := make([]*big.Float, len(xs))
	var coef []*big.Float
	for iter := 0; iter < 50; iter++ {
		// Rows Σ a_j x^j + (−1)^k·E/w = g at the reference points.
		m := make([][]*big.Float, n+1)
		for k, idx := range ref {
			row := make([]*big.Float, n+2)
			p := newBig().SetInt64(1)
			for j := 0; j < n; j++ {
				row[j] = newBig().Set(p)
				p.Mul(p, xs[idx])
			}
			row[n] = newBig().Quo(big.NewFloat(float64(1-2*(k%2))), w[idx])
			row[n+1] = newBig().Set(g[idx])
			m[k] = row
		}
		sol := solve(m)
		coef = sol[:n]
		for i, x := range xs {
			p := newBig()
			for j := n - 1; j >= 0; j-- {
				p.Mul(p, x).Add(p, coef[j])
			}
			errs[i] = p.Sub(g[i], p).Mul(p, w[i])
		}
		// One extremum per run of equal sign, then trim to n+1 points
		// from whichever end has the smaller error.
		var next []int
		for i, e := range errs {
			if e.Sign() == 0 {
				continue
			}
			last := len(next) - 1
			switch {
			case last < 0 || errs[next[last]].Sign() != e.Sign():
				next = append(next, i)
			case newBig().Abs(e).Cmp(newBig().Abs(errs[next[last]])) > 0:
				next[last] = i
			}
		}
		for len(next) > n+1 {
			if newBig().Abs(errs[next[0]]).Cmp(newBig().Abs(errs[next[len(next)-1]])) < 0 {
				next = next[1:]
			} else {
				next = next[:len(next)-1]
			}
		}
		if len(next) < n+1 {
			break
		}
		same := true
		for k := range ref {
			same = same && ref[k] == next[k]
		}
		if same {
			break
		}
		ref = next
	}
	worst := 0.0
	for _, e := range errs {
		f, _ := e.Float64()
		worst = math.Max(worst, math.Abs(f))
	}
	return coef, worst
}

// solve returns x of the augmented system m·x = b (b is m's last
// column) by Gaussian elimination with partial pivoting.
func solve(m [][]*big.Float) []*big.Float {
	n := len(m)
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if newBig().Abs(m[r][col]).Cmp(newBig().Abs(m[piv][col])) > 0 {
				piv = r
			}
		}
		m[col], m[piv] = m[piv], m[col]
		for r := col + 1; r < n; r++ {
			f := newBig().Quo(m[r][col], m[col][col])
			for c := col; c <= n; c++ {
				m[r][c].Sub(m[r][c], newBig().Mul(f, m[col][c]))
			}
		}
	}
	x := make([]*big.Float, n)
	for r := n - 1; r >= 0; r-- {
		s := newBig().Set(m[r][n])
		for c := r + 1; c < n; c++ {
			s.Sub(s, newBig().Mul(m[r][c], x[c]))
		}
		x[r] = s.Quo(s, m[r][r])
	}
	return x
}

// log1pTail returns Σ_{n≥m} (−1)^(n+1)·r^(n−m)/n, that is
// (log1p(r) − Σ_{n<m} (−1)^(n+1)·r^n/n) / r^m, for |r| < 1/8.
func log1pTail(r *big.Float, m int) *big.Float {
	sum, pow := newBig(), newBig().SetInt64(1)
	for n := m; ; n++ {
		term := newBig().Quo(pow, newBig().SetInt64(int64(n)))
		if n%2 == 0 {
			term.Neg(term)
		}
		sum.Add(sum, term)
		if pow.Sign() == 0 || pow.MantExp(nil) < -refPrec-8 {
			return sum
		}
		pow.Mul(pow, r)
	}
}

// remezGrid returns the grid points lo + (hi − lo)·k/(m−1).
func remezGrid(lo, hi *big.Float, m int) []*big.Float {
	xs := make([]*big.Float, m)
	span := newBig().Sub(hi, lo)
	for k := range xs {
		x := newBig().Mul(span, newBig().SetInt64(int64(k)))
		x.Quo(x, newBig().SetInt64(int64(m-1)))
		xs[k] = x.Add(x, lo)
	}
	return xs
}

// logMainPoly fits log1p(r) − r ≈ r²·(A0 + A1·r + … + A4·r⁴) for
// |r| ≤ rmax, minimising the absolute error (the main path's results
// are at least 2^-4 in magnitude, so absolute error is what rounds).
func logMainPoly(rmax *big.Float) ([]*big.Float, float64) {
	xs := remezGrid(newBig().Neg(rmax), rmax, 2000)
	g, w := make([]*big.Float, len(xs)), make([]*big.Float, len(xs))
	for i, x := range xs {
		g[i] = log1pTail(x, 2)
		w[i] = newBig().Mul(x, x)
	}
	return remez(xs, g, w, 5)
}

// logNear1Poly fits log1p(r) ≈ r − r²/2 + r³·(B1 + B2·r + … + B10·r⁹)
// for −2^-4 ≤ r ≤ 0x1.09p-4, minimising the relative error.
func logNear1Poly() ([]*big.Float, float64) {
	xs := remezGrid(big.NewFloat(-0x1p-4), big.NewFloat(0x1.09p-4), 2000)
	g, w := make([]*big.Float, len(xs)), make([]*big.Float, len(xs))
	for i, x := range xs {
		g[i] = log1pTail(x, 3)
		// w = r³/log1p(r) = r²/(1 − r/2 + r²·g).
		x2 := newBig().Mul(x, x)
		den := newBig().Mul(x2, g[i])
		den.Add(den, big.NewFloat(1)).Sub(den, newBig().SetMantExp(x, -1))
		w[i] = x2.Quo(x2, den)
	}
	return remez(xs, g, w, 10)
}

// logArgs is the seeded argument set of the accuracy and bit tests:
// polar-method q = u² + v² in (0, 1) drawn as NormFloat64 draws it, the
// band around 1 and its neighbourhood, 1 ± a few ulps, x = m·2^e over the
// whole positive range (subnormals included, so |ln x| reaches 744), and
// the edges. Every argument is built from the stream with rounded
// products only, so the set is the same bits everywhere.
func logArgs() []float64 {
	s := NewStream(20151115, 19)
	var xs []float64
	for len(xs) < 6000 {
		u, v := 2*s.Float64()-1, 2*s.Float64()-1
		if q := float64(u*u) + float64(v*v); q > 0 && q < 1 {
			xs = append(xs, q)
		}
	}
	for i := 0; i < 4000; i++ {
		xs = append(xs, 0.875+float64(0x1.4p-2*s.Float64()))
	}
	for i := 0; i < 6000; i++ {
		e := int(s.Uint64()%2098) - 1075
		xs = append(xs, math.Ldexp(1+s.Float64(), e))
	}
	for k := 1; k <= 64; k++ {
		xs = append(xs, math.Float64frombits(0x3ff0000000000000+uint64(k)),
			math.Float64frombits(0x3ff0000000000000-uint64(k)))
	}
	return append(xs,
		1, 2, 0.5, math.E, 10, 0x1p-1022, 0x1p-1074, 0x1.fffffffffffffp-1023,
		math.MaxFloat64, 0.9375, math.Nextafter(0.9375, 0), 0x1.109p0,
		math.Nextafter(0x1.109p0, 0), 0x1.6p-1, math.Nextafter(0x1.6p-1, 0),
		0x1.6p0, math.Nextafter(0x1.6p0, 0), 0x1.fffffffffffffp-1)
}

func TestLogAccuracy(t *testing.T) {
	worst, worstX := 0.0, 0.0
	for _, x := range logArgs() {
		got := Log(x)
		if x == 1 {
			if got != 0 || math.Signbit(got) {
				t.Errorf("Log(1) = %v, want +0", got)
			}
			continue
		}
		if e := ulpErr(got, bigLog(big.NewFloat(x))); e > worst {
			worst, worstX = e, x
		}
	}
	t.Logf("max error %.4f ulp at x = %v", worst, worstX)
	if worst > 0.52 {
		t.Errorf("max error %.4f ulp at x = %v, want ≤ 0.52", worst, worstX)
	}
}

func TestLogSpecialCases(t *testing.T) {
	for _, c := range []struct{ x, want float64 }{
		{1, 0},
		{0, math.Inf(-1)},
		{math.Copysign(0, -1), math.Inf(-1)},
		{math.Inf(1), math.Inf(1)},
		{math.E, 1},
		{0x1p-1074, -1074 * math.Ln2},
		{0x1p-1022, -1022 * math.Ln2},
		{0x1p1023, 1023 * math.Ln2},
	} {
		if got := Log(c.x); got != c.want || math.Signbit(got) != math.Signbit(c.want) {
			t.Errorf("Log(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	for _, x := range []float64{math.NaN(), -1, -0x1p-1074, -math.MaxFloat64, math.Inf(-1)} {
		if got := Log(x); !math.IsNaN(got) {
			t.Errorf("Log(%v) = %v, want NaN", x, got)
		}
	}
}

// TestLogDigest pins Log's bits over the seeded argument set. CI runs it
// under GOARCH=386 and GOAMD64=v3 as well, so the digest is checked with
// and without FMA-capable code generation.
func TestLogDigest(t *testing.T) {
	const want = "55d408c5221c10cd28e146e8c3eb704cda42d625baa7f20901f9c5c80307ed3a"
	h := sha256.New()
	var buf [8]byte
	for _, x := range logArgs() {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(Log(x)))
		h.Write(buf[:])
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("Log digest = %s, want %s", got, want)
	}
}

// TestNormFloat64Digest pins 10^6 polar normals of a seeded stream, the
// per-rank noise of the simulated machine.
func TestNormFloat64Digest(t *testing.T) {
	const want = "a59370d7b4380961ee939319223594e024239286451761eb8fb99418612c6e0e"
	s := NewStream(Mix64(20151115), Mix64(20151116))
	h := sha256.New()
	var buf [8]byte
	for i := 0; i < 1e6; i++ {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(s.NormFloat64()))
		h.Write(buf[:])
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("NormFloat64 digest = %s, want %s", got, want)
	}
}

// hexLit formats f as a Go hexadecimal float literal in the table's
// style: 0x1.8p0, 0x1.8p-5.
func hexLit(f float64) string {
	s := strconv.FormatFloat(f, 'x', -1, 64) // 0x1.8p+00, 0x1.8p-05
	s = strings.Replace(s, "p+", "p", 1)
	s = strings.Replace(s, "p0", "p", 1)
	return strings.Replace(s, "p-0", "p-", 1)
}

func TestLogTable(t *testing.T) {
	for i, got := range logTab {
		want, err := logTableEntry(i)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("logTab[%d] = %v, want {%s, %s, %s, %s}", i, got,
				hexLit(want.invc), hexLit(want.logc), hexLit(want.chi), hexLit(want.clo))
		}
	}
	hi := newBig().SetPrec(42).Set(bigLn2)
	lo, _ := newBig().Sub(bigLn2, hi).Float64()
	if f, _ := hi.Float64(); f != logLn2hi || lo != logLn2lo {
		t.Errorf("ln2 split = %s + %s, want %s + %s", hexLit(logLn2hi), hexLit(logLn2lo), hexLit(f), hexLit(lo))
	}
}

func TestLogPolynomials(t *testing.T) {
	check := func(name string, got []float64, coef []*big.Float, maxErr, bound float64) {
		t.Helper()
		t.Logf("%s: minimax error 2^%.2f", name, math.Log2(maxErr))
		if maxErr > bound {
			t.Errorf("%s: minimax error %g, want ≤ %g", name, maxErr, bound)
		}
		for j, c := range coef {
			if want, _ := c.Float64(); got[j] != want {
				t.Errorf("%s coefficient %d = %s, want %s", name, j, hexLit(got[j]), hexLit(want))
			}
		}
	}
	a, errA := logMainPoly(logRRange(&logTab))
	check("main", []float64{logA0, logA1, logA2, logA3, logA4}, a, errA, 0x1p-64)
	b, errB := logNear1Poly()
	check("band", []float64{logB1, logB2, logB3, logB4, logB5, logB6, logB7, logB8, logB9, logB10}, b, errB, 0x1p-62)
}

var logSink float64

func BenchmarkLog(b *testing.B) {
	s := NewStream(1, 2)
	xs := make([]float64, 1024)
	for i := range xs {
		for xs[i] == 0 || xs[i] >= 1 {
			u, v := 2*s.Float64()-1, 2*s.Float64()-1
			xs[i] = float64(u*u) + float64(v*v)
		}
	}
	for _, bc := range []struct {
		name string
		log  func(float64) float64
	}{{"rng.Log", Log}, {"math.Log", math.Log}} {
		b.Run(bc.name, func(b *testing.B) {
			var sum float64
			for i := 0; i < b.N; i++ {
				sum += bc.log(xs[i&1023])
			}
			logSink = sum
		})
	}
}
