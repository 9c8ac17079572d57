package rng

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/big"
	"testing"
)

const refPrec = 256

// bigLn2 is ln 2 to refPrec bits: 2·atanh(1/3) = 2·Σ 3^-(2j+1)/(2j+1).
var bigLn2 = func() *big.Float {
	sum := new(big.Float).SetPrec(refPrec)
	pow := new(big.Float).SetPrec(refPrec).Quo(big.NewFloat(1), big.NewFloat(3))
	ninth := new(big.Float).SetPrec(refPrec).Quo(big.NewFloat(1), big.NewFloat(9))
	term := new(big.Float).SetPrec(refPrec)
	for j := 0; j < 90; j++ {
		term.Quo(pow, new(big.Float).SetInt64(int64(2*j+1)))
		sum.Add(sum, term)
		pow.Mul(pow, ninth)
	}
	return sum.Mul(sum, big.NewFloat(2))
}()

// bigExp returns e**x to about refPrec bits: x = k·ln2 + r, then e**r by
// its Taylor series on r/2^8, squared back eight times.
func bigExp(x float64) *big.Float {
	k := math.Round(x / math.Ln2)
	r := new(big.Float).SetPrec(refPrec).SetFloat64(x)
	r.Sub(r, new(big.Float).SetPrec(refPrec).Mul(bigLn2, big.NewFloat(k)))
	r.SetMantExp(r, -8)
	sum := new(big.Float).SetPrec(refPrec).SetInt64(1)
	term := new(big.Float).SetPrec(refPrec).SetInt64(1)
	for j := int64(1); j < 60; j++ {
		term.Mul(term, r)
		term.Quo(term, new(big.Float).SetInt64(j))
		sum.Add(sum, term)
	}
	for j := 0; j < 8; j++ {
		sum.Mul(sum, sum)
	}
	return sum.SetMantExp(sum, int(k))
}

// ulpErr is |got − ref| in units of the last place of ref's float64
// rounding (subnormal results count in units of 2^-1074).
func ulpErr(got float64, ref *big.Float) float64 {
	exp := ref.MantExp(nil) - 53 // ref ∈ [2^(e-1), 2^e): ulp 2^(e-53)
	if exp < -1074 {
		exp = -1074
	}
	d := new(big.Float).SetPrec(refPrec).SetFloat64(got)
	d.Sub(d, ref)
	d.SetMantExp(d, -exp)
	e, _ := d.Float64()
	return math.Abs(e)
}

// expArgs is the seeded argument set of the accuracy and bit tests: σ·Z
// for the simulator's three noise scales, uniform arguments over the
// whole finite range (overflow and subnormal results included), and the
// edges. Z is Irwin–Hall (twelve uniforms less 6), not NormFloat64,
// whose math.Log may differ across architectures: the arguments
// themselves must be the same bits everywhere for the digest to mean
// anything.
func expArgs() []float64 {
	s := NewStream(20151115, 18)
	var xs []float64
	for _, sigma := range []float64{0.015, 0.125, 0.25} {
		for i := 0; i < 4000; i++ {
			z := -6.0
			for j := 0; j < 12; j++ {
				z += s.Float64()
			}
			xs = append(xs, sigma*z)
		}
	}
	for i := 0; i < 4000; i++ {
		xs = append(xs, -745.2+float64((709.8+745.2)*s.Float64()))
	}
	for i := 0; i < 2000; i++ {
		xs = append(xs, float64(2*s.Float64()-1)*709)
	}
	return append(xs,
		0, 0x1p-60, -0x1p-60, 0x1p-54, -0x1p-54, 0x1p-30, -0x1p-30,
		1, -1, math.Ln2/256, -math.Ln2/256, 511.9, 512, -512, 700,
		709.78, 709.782712893384, -708.39, -708.4, -720, -740, -745.13,
		-745.1332191019411, -745.2)
}

func TestExpAccuracy(t *testing.T) {
	worst, worstX := 0.0, 0.0
	for _, x := range expArgs() {
		got := Exp(x)
		ref := bigExp(x)
		if f, _ := ref.Float64(); math.IsInf(f, 1) {
			if !math.IsInf(got, 1) {
				t.Errorf("Exp(%v) = %v, want +Inf", x, got)
			}
			continue
		}
		if e := ulpErr(got, ref); e > worst {
			worst, worstX = e, x
		}
	}
	t.Logf("max error %.4f ulp at x = %v", worst, worstX)
	if worst > 0.51 {
		t.Errorf("max error %.4f ulp at x = %v, want ≤ 0.51", worst, worstX)
	}
}

func TestExpSpecialCases(t *testing.T) {
	for _, c := range []struct{ x, want float64 }{
		{0, 1},
		{math.Copysign(0, -1), 1},
		{0x1p-60, 1},
		{math.Inf(1), math.Inf(1)},
		{math.Inf(-1), 0},
		{709.8, math.Inf(1)},
		{1e300, math.Inf(1)},
		{-746, 0},
		{-1e300, 0},
		{1, math.E},
	} {
		if got := Exp(c.x); got != c.want || math.Signbit(got) {
			t.Errorf("Exp(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if got := Exp(math.NaN()); !math.IsNaN(got) {
		t.Errorf("Exp(NaN) = %v, want NaN", got)
	}
}

// TestExpDigest pins Exp's bits over the seeded argument set. CI runs it
// under GOARCH=386 and GOAMD64=v3 as well, so the digest is checked with
// and without FMA-capable code generation.
func TestExpDigest(t *testing.T) {
	const want = "e854401a7ea4ed89091081d899b7cd71156c2dcb4d3a4e6bc25351468eb926fd"
	h := sha256.New()
	var buf [8]byte
	for _, x := range expArgs() {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(Exp(x)))
		h.Write(buf[:])
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("Exp digest = %s, want %s", got, want)
	}
}

func TestExpTable(t *testing.T) {
	two := new(big.Float).SetPrec(refPrec).SetInt64(2)
	root := new(big.Float).SetPrec(refPrec).Sqrt(two)
	for j := 1; j < 7; j++ {
		root.Sqrt(root) // 2^(1/128)
	}
	v := new(big.Float).SetPrec(refPrec).SetInt64(1)
	for i := 0; i < len(expTab)/2; i++ {
		scale, _ := v.Float64()
		sc := new(big.Float).SetPrec(refPrec).SetFloat64(scale)
		tail, _ := new(big.Float).SetPrec(refPrec).Quo(new(big.Float).SetPrec(refPrec).Sub(v, sc), sc).Float64()
		if got, want := expTab[2*i], math.Float64bits(tail); got != want {
			t.Errorf("expTab[%d] = %#x, want %#x", 2*i, got, want)
		}
		if got, want := expTab[2*i+1], math.Float64bits(scale)-uint64(i)<<45; got != want {
			t.Errorf("expTab[%d] = %#x, want %#x", 2*i+1, got, want)
		}
		v.Mul(v, root)
	}
}

var expSink float64

func BenchmarkExp(b *testing.B) {
	s := NewStream(1, 2)
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = 0.125 * s.NormFloat64()
	}
	for _, bc := range []struct {
		name string
		exp  func(float64) float64
	}{{"rng.Exp", Exp}, {"math.Exp", math.Exp}} {
		b.Run(bc.name, func(b *testing.B) {
			var sum float64
			for i := 0; i < b.N; i++ {
				sum += bc.exp(xs[i&1023])
			}
			expSink = sum
		})
	}
}
