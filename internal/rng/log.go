package rng

import "math"

// Log returns the natural logarithm of x. The polar normal draws of
// Stream.NormFloat64 and serve's exponential gaps use it instead of
// math.Log for the reason Exp replaces math.Exp: math.Log is assembly on
// amd64 and a pure-Go kernel elsewhere, which the compiler fuses into
// FMAs where the target has them, so its last bit depends on the
// machine. Log rounds every product with an explicit float64
// conversion, which the Go spec forbids fusing, and so returns the same
// bits on every GOARCH and GOAMD64 level (Rule 9).
//
// The algorithm is the table-driven scheme of ARM's optimized-routines
// log. Outside a band around 1, x = 2^k·z with z in [0x1.6p-1, 0x1.6p0)
// and ln x = k·ln2 + ln c + log1p(r), where c is a tabulated point near
// z and r = z/c − 1 = (z − c)·(1/c). The table holds 1/c exactly (c is
// defined as its reciprocal) and c split into chi + clo, so r costs one
// rounded product and no FMA; log1p(r) − r comes from a polynomial with
// five coefficients (|r| ≤ 0x1.fe03p-9). Inside the band
// 1 − 2^-4 ≤ x < 1 + 0x1.09p-4, where ln x is small and the rounding of
// ln c would dominate its error, a degree-12 polynomial in x − 1 is used
// with its quadratic term kept in double-double. TestLogTable and
// TestLogPolynomials rebuild the table and both sets of coefficients with
// math/big. The error analysis ARM gives for the scheme puts the worst
// case near 0.52 ulp; TestLogAccuracy checks ≤ 0.52 ulp against a
// math/big reference over a seeded argument set. Zeros, negative
// numbers, ±Inf, NaN and subnormals behave as in math.Log.
func Log(x float64) float64 {
	const (
		bandLo = 0x3fee000000000000 // bits of 1 − 2^-4
		bandHi = 0x3ff1090000000000 // bits of 1 + 0x1.09p-4
		off    = 0x3fe6000000000000 // bits of 0x1.6p-1, the bottom of z's range
	)
	ix := math.Float64bits(x)
	if ix-bandLo < bandHi-bandLo {
		return logNear1(x)
	}
	if top := ix >> 52; top-1 >= 0x7fe {
		// x is zero, subnormal, negative, infinite or NaN.
		switch {
		case ix<<1 == 0:
			return math.Inf(-1)
		case math.IsNaN(x) || ix == 0x7ff0000000000000:
			return x // NaN, +Inf
		case ix>>63 != 0:
			return math.NaN()
		}
		// Subnormal: scale into the normal range and take 52 off k.
		ix = math.Float64bits(float64(x*0x1p52)) - 52<<52
	}

	// z = x·2^-k lies in [0x1.6p-1, 0x1.6p0); the top table bits of its
	// offset from the bottom of that range pick the entry.
	tmp := ix - off
	e := &logTab[tmp>>(52-logTableBits)%logN]
	k := float64(int64(tmp) >> 52)
	z := math.Float64frombits(ix - tmp&(0xfff<<52))
	// r = z/c − 1. z − chi is exact, and clo lies within 2^-66 of a
	// multiple of 2^-61, so subtracting it rounds by less than 2^-66; the
	// product rounds once.
	r := float64((z - e.chi - e.clo) * e.invc)

	// hi + lo = k·ln2 + ln c + r. k·ln2hi is exact; w's rounding error is
	// recovered exactly because |k·ln2hi| ≥ |ln c| when k ≠ 0.
	a := float64(k * logLn2hi)
	w := a + e.logc
	hi := w + r
	lo := a - w + e.logc + (w - hi + r) + float64(k*logLn2lo)

	r2 := float64(r * r)
	p := logA1 + float64(r*logA2) + float64(r2*(logA3+float64(r*logA4)))
	return lo + float64(r2*logA0) + float64(float64(r*r2)*p) + hi
}

// logNear1 is Log for 1 − 2^-4 ≤ x < 1 + 0x1.09p-4: ln x = log1p(r) with
// r = x − 1 exact, as r − r²/2 + r³·B(r). r²/2 is split so that its
// leading part adds to r without losing bits.
func logNear1(x float64) float64 {
	r := x - 1
	r2 := float64(r * r)
	r3 := float64(r * r2)
	p := logB7 + float64(r*logB8) + float64(r2*logB9) + float64(r3*logB10)
	p = logB4 + float64(r*logB5) + float64(r2*logB6) + float64(r3*p)
	p = logB1 + float64(r*logB2) + float64(r2*logB3) + float64(r3*p)
	y := float64(r3 * p)
	// rhi keeps r's top 26 bits, so rhi² is exact.
	w := float64(r * 0x1p27)
	rhi := r + w - w
	rlo := r - rhi
	w = float64(float64(rhi*rhi) * -0.5)
	hi := r + w
	lo := r - hi + w
	lo += float64(float64(-0.5*rlo) * (rhi + r))
	return y + lo + hi
}

const (
	logTableBits = 7
	logN         = 1 << logTableBits

	// ln 2 = logLn2hi + logLn2lo, the high part with 42 significant bits
	// so that k·logLn2hi is exact for every |k| < 2^11.
	logLn2hi = 0x1.62e42fefa3800p-1
	logLn2lo = 0x1.ef35793c76730p-45
)

// logEntry is one table point c: invc = 1/c exactly (c is defined as
// the reciprocal of the float64 invc), logc = ln c rounded, and
// chi + clo = c with chi = c rounded and clo = c − chi rounded.
type logEntry struct{ invc, logc, chi, clo float64 }

// Coefficients of the main path's log1p(r) − r ≈ r²·(A0 + A1·r + … +
// A4·r⁴), minimax in absolute error for |r| ≤ 0x1.fe03p-9 (error
// 2^-64.1), and of the band's log1p(r) ≈ r − r²/2 + r³·(B1 + B2·r + … +
// B10·r⁹), minimax in relative error for −2^-4 ≤ r ≤ 0x1.09p-4 (error
// 2^-62.2). TestLogPolynomials recomputes them with math/big.
const (
	logA0  = -0x1.0000000000001p-1
	logA1  = 0x1.555555550b2e8p-2
	logA2  = -0x1.fffffffebc19cp-3
	logA3  = 0x1.999b49c796f07p-3
	logA4  = -0x1.555761a899fc8p-3
	logB1  = 0x1.5555555555577p-2
	logB2  = -0x1.ffffffffffdb3p-3
	logB3  = 0x1.999999995deb2p-3
	logB4  = -0x1.555555567c846p-3
	logB5  = 0x1.24924a342f25ap-3
	logB6  = -0x1.fffffa24abec4p-4
	logB7  = 0x1.c71842926e84dp-4
	logB8  = -0x1.999ece43ca20ap-4
	logB9  = 0x1.781835fc5ff8fp-4
	logB10 = -0x1.5519617dfcda7p-4
)

// logTab holds the table points of Log, one per run of z; TestLogTable
// recomputes every entry with math/big.
var logTab = [logN]logEntry{
	{0x1.734f0c3a83ac4p0, -0x1.7cc7f794a5c1ep-2, 0x1.6100001858f4ep-1, -0x1.80380f5be971dp-57},
	{0x1.71378820ee226p0, -0x1.76fef0449b891p-2, 0x1.62fffec5727a2p-1, -0x1.5bf92749ff3e2p-55},
	{0x1.6f26002db5a3ep0, -0x1.713e3023e6b14p-2, 0x1.650001388ddp-1, 0x1.5fe07b202e1aep-56},
	{0x1.6d1a61efdbfe3p0, -0x1.6b85b37eb5428p-2, 0x1.670000763defep-1, 0x1.3041880f75227p-57},
	{0x1.6b148ec6f8696p0, -0x1.65d55381f6965p-2, 0x1.690001e074728p-1, -0x1.ffbd0787b9655p-57},
	{0x1.691473c47f1ecp0, -0x1.602d08fe499ffp-2, 0x1.6affffe3e7e23p-1, 0x1.3410567107d44p-55},
	{0x1.6719f43918123p0, -0x1.5a8cb026bc9d3p-2, 0x1.6cffff236dd8ap-1, -0x1.981043efca5b5p-56},
	{0x1.6524f71bd2527p0, -0x1.54f42e3983216p-2, 0x1.6f0001407da36p-1, -0x1.e004d14ceacap-55},
	{0x1.63356b0cb37fep0, -0x1.4f637d5646f76p-2, 0x1.71000080c8c23p-1, -0x1.c7c6e87b3d7fp-56},
	{0x1.614b37221628dp0, -0x1.49da8108987bdp-2, 0x1.72ffff590d023p-1, -0x1.c01a0839e88c1p-56},
	{0x1.5f664520169cdp0, -0x1.44592374bbd5dp-2, 0x1.74fffe0521f21p-1, -0x1.77ee2eae7515ep-55},
	{0x1.5d867ada49ff3p0, -0x1.3edf42279b4b7p-2, 0x1.7700017e8020bp-1, 0x1.3e3e1f3e0d2fbp-59},
	{0x1.5babccfb7e46bp0, -0x1.396ce51675e11p-2, 0x1.78ffff5c448d1p-1, 0x1.902937278f78dp-57},
	{0x1.59d61f60a88d3p0, -0x1.3401e2131fccp-2, 0x1.7affffaa0f192p-1, 0x1.600164303c6cp-55},
	{0x1.580560f856284p0, -0x1.2e9e2e71429b5p-2, 0x1.7cffff04c8399p-1, -0x1.e071d527654a6p-58},
	{0x1.56397a8a926cbp0, -0x1.2941ac5c28d79p-2, 0x1.7f00013f2ddd2p-1, -0x1.181099afc2ce5p-56},
	{0x1.54725d5692797p0, -0x1.23ec565050348p-2, 0x1.810001396ab16p-1, 0x1.bfe596f6b0e3p-57},
	{0x1.52aff497acb83p0, -0x1.1e9e13fb1dd36p-2, 0x1.830000f0e67dap-1, -0x1.88069fdcb2bfp-55},
	{0x1.50f22d078a48dp0, -0x1.1956d092a66fbp-2, 0x1.850001329903ap-1, 0x1.401c574394a5ap-55},
	{0x1.4f38f7ac1ebc2p0, -0x1.141683832d584p-2, 0x1.86fffe421a32bp-1, 0x1.7dff24be41af9p-60},
	{0x1.4d843ceea2f9fp0, -0x1.0edd0920286a4p-2, 0x1.88fffed14f4ecp-1, 0x1.1be90886e5683p-55},
	{0x1.4bd3ec39d6b49p0, -0x1.09aa5228e8fb5p-2, 0x1.8b0001efe0757p-1, -0x1.1bfdc22209aacp-55},
	{0x1.4a27f8eb1a6bfp0, -0x1.047e5ad71829dp-2, 0x1.8d00024ff02c9p-1, 0x1.97fb6dc1067f6p-56},
	{0x1.4880508af582cp0, -0x1.feb21960f311ep-3, 0x1.8f0001ec102a6p-1, 0x1.3fedd770b6c0fp-55},
	{0x1.46dce16a97ba3p0, -0x1.f474a594bdc4bp-3, 0x1.91000246ba8a3p-1, -0x1.e3e2cb701fad3p-55},
	{0x1.453d9dcf9f349p0, -0x1.ea4447a7a92dfp-3, 0x1.930000730ac7ep-1, 0x1.0fe75e1992eedp-55},
	{0x1.43a27210a7ac6p0, -0x1.e020c6339ab7cp-3, 0x1.95000138f764ep-1, 0x1.0405e941ebe8ep-55},
	{0x1.420b51ca12c5dp0, -0x1.d60a141a12b25p-3, 0x1.970000c4ee11cp-1, 0x1.d7f40c1de021p-55},
	{0x1.40782e3a13e75p0, -0x1.cc001408daf3fp-3, 0x1.98fffe84b9cd7p-1, 0x1.e81457b673467p-55},
	{0x1.3ee8f43daf6dp0, -0x1.c2028b2da22b4p-3, 0x1.9affffe716906p-1, -0x1.d7f90e8f7e307p-56},
	{0x1.3d5d97a7dbe64p0, -0x1.b81169b2b9418p-3, 0x1.9d0001e28788ep-1, -0x1.f41e7bce8653cp-55},
	{0x1.3bd60d7e028cap0, -0x1.ae2ca6738b452p-3, 0x1.9f00001a86a78p-1, -0x1.9411180322745p-55},
	{0x1.3a524192de5efp0, -0x1.a453fb6f5b88cp-3, 0x1.a100029866f8p-1, 0x1.01f6b82cd40d1p-59},
	{0x1.38d22d9e54197p0, -0x1.9a877b874939ap-3, 0x1.a2ffff74c3d42p-1, 0x1.f03438c2db15dp-57},
	{0x1.3755bd5b8088bp0, -0x1.90c6dd3db5509p-3, 0x1.a4ffffaae9df8p-1, -0x1.1c13867efd05cp-55},
	{0x1.35dce45ab6a72p0, -0x1.871208bc9dcabp-3, 0x1.a7000236d84e2p-1, 0x1.d41def08fe18ap-55},
	{0x1.34679a0997be4p0, -0x1.7d68feb2a956cp-3, 0x1.a900010eaad7cp-1, -0x1.081087566d25bp-55},
	{0x1.32f5cfc49b919p0, -0x1.73cb96a8bb019p-3, 0x1.aafffeb4f6474p-1, 0x1.57e9fb2ed30f9p-56},
	{0x1.318774161b1dfp0, -0x1.6a3993cfeaf6dp-3, 0x1.ad000210abec4p-1, -0x1.cbe9bb06056c3p-55},
	{0x1.301c812e100fp0, -0x1.60b305fd3d661p-3, 0x1.af00021da7496p-1, -0x1.804a130c6a515p-57},
	{0x1.2eb4eb87734cdp0, -0x1.5737d61080dbep-3, 0x1.b0fffdfdba014p-1, -0x1.a809bd326c4bap-55},
	{0x1.2d509fd7ad66dp0, -0x1.4dc7b705aab32p-3, 0x1.b30000556672dp-1, -0x1.cbe486da07699p-55},
	{0x1.2bef99d6ee6cep0, -0x1.4462c04c2f3a9p-3, 0x1.b4fffea0710ccp-1, -0x1.441c9885a664ep-55},
	{0x1.2a91c85cca81p0, -0x1.3b08b0d1fc357p-3, 0x1.b70001356cb2cp-1, -0x1.e4102c2f7c2d9p-55},
	{0x1.2937273dfb67cp0, -0x1.31b99f3abd487p-3, 0x1.b8fffdc28ce53p-1, 0x1.97fe13d28e97dp-56},
	{0x1.27dfa2995e86ap0, -0x1.2875353eb5038p-3, 0x1.bb00016874c1p-1, -0x1.a7f7c5dee2c45p-56},
	{0x1.268b37ca03a97p0, -0x1.1f3b9247c74a3p-3, 0x1.bd00000513eabp-1, 0x1.6817511503d5dp-55},
	{0x1.2539d7eb11e2dp0, -0x1.160c803283673p-3, 0x1.befffffcfc067p-1, 0x1.5ff34d770f43fp-55},
	{0x1.23eb77bbffcc5p0, -0x1.0ce7e0dfbab53p-3, 0x1.c10002a0db757p-1, 0x1.81bad98f9ea1ap-59},
	{0x1.22a010c0b9de2p0, -0x1.03cdb6b33c83fp-3, 0x1.c3000230a4338p-1, 0x1.581a67c5f93p-55},
	{0x1.21579948a8a6dp0, -0x1.f57bd9c593cd1p-4, 0x1.c4fffe0485f2ep-1, -0x1.6ffb1238d16a1p-55},
	{0x1.201201434e1c3p0, -0x1.e37080d803286p-4, 0x1.c6ffffc858f71p-1, -0x1.6bff9f435510cp-55},
	{0x1.1ecf423fb34e8p0, -0x1.d179629fd1e06p-4, 0x1.c90002710f173p-1, 0x1.40c839fbd17d6p-58},
	{0x1.1d8f57ba289a1p0, -0x1.bf9699c032f86p-4, 0x1.cafffdf1f6ca4p-1, 0x1.100078e868094p-55},
	{0x1.1c52316328afp0, -0x1.adc7966230b0ap-4, 0x1.ccfffd5b4c9f7p-1, -0x1.afb8ab6a610a3p-57},
	{0x1.1b17c6ace72cdp0, -0x1.9c0c356a8324bp-4, 0x1.ceffffb534538p-1, -0x1.f02f2abecc55p-57},
	{0x1.19e00fab48d7ep0, -0x1.8a645b5a182a7p-4, 0x1.d1000336b8957p-1, -0x1.bfd04072d37bp-56},
	{0x1.18ab09b343536p0, -0x1.78d037f3f6a77p-4, 0x1.d2fffd8aa1882p-1, -0x1.d40bd53657f2fp-55},
	{0x1.1778a09bf3dd9p0, -0x1.674efa8113c8bp-4, 0x1.d500019c79009p-1, -0x1.20185b6c404f8p-55},
	{0x1.1648d35eaac4dp0, -0x1.55e0e76a41a5bp-4, 0x1.d70002dd04de3p-1, 0x1.0ffa26a4bc0eep-55},
	{0x1.151b9ac742671p0, -0x1.4485e80f0b7c5p-4, 0x1.d8ffff18e47cfp-1, 0x1.280e14c081bd5p-55},
	{0x1.13f0eaaa4d276p0, -0x1.333d9ad16d1dep-4, 0x1.dafffcd52ba8cp-1, -0x1.f037da691c95dp-57},
	{0x1.12c8ba591fbb5p0, -0x1.2207cf8806354p-4, 0x1.dcfffd0044ffp-1, -0x1.fc489fd5ad7c3p-61},
	{0x1.11a300891fadcp0, -0x1.10e44b4140abep-4, 0x1.df0001de77295p-1, -0x1.e81a0d4e2316ap-55},
	{0x1.107fba48bec67p0, -0x1.ffa66145a039dp-5, 0x1.e10002cefb215p-1, -0x1.a079c9ea5c1b5p-57},
	{0x1.0f5ede41ee232p0, -0x1.dda8832cc38cep-5, 0x1.e300028300656p-1, 0x1.23e04c7d96198p-55},
	{0x1.0e40671f82695p0, -0x1.bbcef5b1b02cep-5, 0x1.e4fffccecc57dp-1, -0x1.c80e37fa56145p-55},
	{0x1.0d24443595615p0, -0x1.9a18577630959p-5, 0x1.e70002220903fp-1, -0x1.b80d2d9932d75p-56},
	{0x1.0c0a7a2838082p0, -0x1.7885cb1087c76p-5, 0x1.e8fffccf9378ap-1, 0x1.1c1d9f50ededap-55},
	{0x1.0af2f57b2d849p0, -0x1.571591f4419aap-5, 0x1.eb00030b69dacp-1, 0x1.7d582d8fbf7bcp-60},
	{0x1.09ddba82b8055p0, -0x1.35c8c285d92a4p-5, 0x1.ecffffd3f61b7p-1, -0x1.efd55445919aep-57},
	{0x1.08cab9b906214p0, -0x1.149e100c332c2p-5, 0x1.ef0002cab1a2p-1, -0x1.aff0f29d7a5f9p-56},
	{0x1.07b9f369185c5p0, -0x1.e72c246246389p-6, 0x1.f0fffe7ca8743p-1, -0x1.540a107a529b6p-55},
	{0x1.06ab5877d9966p0, -0x1.a55f02c000135p-6, 0x1.f300027dc5606p-1, 0x1.5fcbe3d4213a2p-56},
	{0x1.059eeafabdacbp0, -0x1.63d6531d37003p-6, 0x1.f4fffe2d88b35p-1, 0x1.8819b7b853c84p-55},
	{0x1.04949d944e2abp0, -0x1.228fe5cb55898p-6, 0x1.f6fffe68e3349p-1, -0x1.efe491aa06978p-56},
	{0x1.038c6b965b592p0, -0x1.c317473302a39p-7, 0x1.f8ffffc53668fp-1, -0x1.dbe827b150c96p-55},
	{0x1.02864df6fece6p0, -0x1.4191b9a12b0e7p-7, 0x1.fb00038ed9ce4p-1, 0x1.87eaa40dbdfe1p-56},
	{0x1.018241ec8bfb2p0, -0x1.811faaeeaecaep-8, 0x1.fd0002e84aad7p-1, -0x1.683e73e71cc9cp-56},
	{0x1.00804115bfa2ap0, -0x1.0041ffc6dd3c6p-9, 0x1.fefffe168bb1p-1, -0x1.700812887f0a8p-55},
	{0x1.fe01fea9d99ep-1, 0x1.ff0001a79939cp-9, 0x1.00ffffab6a029p0, 0x1.07ef4bb7fa735p-56},
	{0x1.fa11cb30c12fep-1, 0x1.7dc4516333d0cp-7, 0x1.02ffffb5fac93p0, 0x1.80e94fa054958p-59},
	{0x1.f6310ca6bdd4ap-1, 0x1.3cea0774793b4p-6, 0x1.04ffff08413d3p0, -0x1.afec907e503e9p-57},
	{0x1.f25f63d5b2bb6p-1, 0x1.b9fc1069a54b1p-6, 0x1.0700003940cbap0, 0x1.e7fc5b43cdf41p-56},
	{0x1.ee9c80c684af6p-1, 0x1.1b0d83ba48062p-5, 0x1.08ffff536396ap0, -0x1.ec019d84fcd7fp-54},
	{0x1.eae807606268bp-1, 0x1.58a5bfe4241abp-5, 0x1.0b000028ec49fp0, -0x1.83f2bd27bc833p-55},
	{0x1.e741aac156f3ap-1, 0x1.95c82a1a085f8p-5, 0x1.0cffffc6a64abp0, -0x1.940c56e57ee83p-54},
	{0x1.e3a91896ac432p-1, 0x1.d276a835ab087p-5, 0x1.0effff7487901p0, 0x1.59f119bc4327ap-54},
	{0x1.e01e015595eebp-1, 0x1.075987f7672b7p-4, 0x1.1100004ec544cp0, 0x1.e80a55e9a5681p-55},
	{0x1.dca01f602130fp-1, 0x1.253f554e840abp-4, 0x1.12ffff15adaa4p0, 0x1.b5f6dd9e989f1p-54},
	{0x1.d92f20cfe6f8cp-1, 0x1.42edd7e2bd1a4p-4, 0x1.150000cf3b7f6p0, 0x1.040f0075d44ffp-55},
	{0x1.d5cac65773744p-1, 0x1.60659948fe757p-4, 0x1.170001007d8c9p0, 0x1.bf8686af9d486p-58},
	{0x1.d272c88e0c4f6p-1, 0x1.7da775b8551abp-4, 0x1.19000105493f8p0, -0x1.1408992acf471p-54},
	{0x1.cf26e642ca017p-1, 0x1.9ab4200358bebp-4, 0x1.1affffb2b5989p0, 0x1.cffba2ad17f5p-54},
	{0x1.cbe6d81d6320ap-1, 0x1.b78c8df554037p-4, 0x1.1d0000c7fdf03p0, 0x1.c8077dec20fcep-54},
	{0x1.c8b2673b4f373p-1, 0x1.d4312f8adcc4ep-4, 0x1.1effff0766fb6p0, 0x1.6fe34c9299faep-56},
	{0x1.c5894d172cd8dp-1, 0x1.f0a30bc7c9245p-4, 0x1.20fffffbf500cp0, 0x1.0c0951e159abfp-55},
	{0x1.c26b554abbdc4p-1, 0x1.0671495cd76d4p-3, 0x1.22fffee3d9156p0, 0x1.ffbbd8b5c8874p-59},
	{0x1.bf583e1abc4ccp-1, 0x1.14785bf40e1c4p-3, 0x1.25000086b6265p0, -0x1.41f39e107379ep-54},
	{0x1.bc4fd79640cc2p-1, 0x1.2266ebd81301ep-3, 0x1.26ffff2d09dffp0, -0x1.a00ce58646dccp-58},
	{0x1.b951e1e2a66e4p-1, 0x1.303d754e7ba67p-3, 0x1.2900008b3f7e1p0, -0x1.f7ece174fc1b2p-55},
	{0x1.b65e3019cc462p-1, 0x1.3dfc2256460fcp-3, 0x1.2afffeba0f646p0, -0x1.d3fd3b33c6f8bp-54},
	{0x1.b3748436c7643p-1, 0x1.4ba37168039b7p-3, 0x1.2d0000521099cp0, 0x1.8bfd2623a9b8cp-54},
	{0x1.b094b17f4443ep-1, 0x1.59339542fadabp-3, 0x1.2f00012232c0bp0, -0x1.c1fe41252d09dp-54},
	{0x1.adbe8694c0cabp-1, 0x1.66acdaca4411ep-3, 0x1.310000fd0a229p0, 0x1.f00397bec9b2cp-54},
	{0x1.aaf1d496fd2ddp-1, 0x1.740f878fbd065p-3, 0x1.32fffed5f3f0fp0, -0x1.281903c7c97a4p-55},
	{0x1.a82e6375d10f1p-1, 0x1.815c11df6025cp-3, 0x1.3500012d075p0, 0x1.f3fefef6e6995p-54},
	{0x1.a574109b75b86p-1, 0x1.8e928d3516c82p-3, 0x1.36ffffe4c05c3p0, 0x1.effd94c96566fp-56},
	{0x1.a2c2a8692ed4ep-1, 0x1.9bb3634576af2p-3, 0x1.3900000e4db28p0, -0x1.880d6d6609088p-55},
	{0x1.a01a022d3f598p-1, 0x1.a8becd11cf258p-3, 0x1.3affff9526189p0, -0x1.001d6e7bed274p-58},
	{0x1.9d79f155868eep-1, 0x1.b5b51a8d5cdeap-3, 0x1.3d00001971982p0, -0x1.581095bd02f5ap-55},
	{0x1.9ae2500561d98p-1, 0x1.c2967e7dedd6ep-3, 0x1.3efffeeeaa46ap0, -0x1.6be999798d733p-55},
	{0x1.9852efb97b74p-1, 0x1.cf635a824d2dfp-3, 0x1.410000e1f7d6fp0, 0x1.6010a1390ccedp-58},
	{0x1.95cbaf919b02p-1, 0x1.dc1bcff7e47bfp-3, 0x1.430000ef46d2ap0, 0x1.c1e9a4ae3a799p-59},
	{0x1.934c68e042af1p-1, 0x1.e8c02097d3065p-3, 0x1.44ffff463353ap0, -0x1.f7fead63d83b3p-56},
	{0x1.90d4f0aecd4afp-1, 0x1.f550a7a796c8ep-3, 0x1.4700005c6d5eap0, -0x1.b0022c26fce4bp-54},
	{0x1.8e6529784a046p-1, 0x1.00e6bfc3a6c53p-2, 0x1.48fffe866d65ep0, -0x1.30547a898ebe2p-57},
	{0x1.8bfce96a2f257p-1, 0x1.071b82643fa7ap-2, 0x1.4afffed66d8b6p0, 0x1.3a0b63c71deb9p-54},
	{0x1.899c0f7a05eaap-1, 0x1.0d46b53638105p-2, 0x1.4cffffea10b9ap0, -0x1.09fbd7d1c1bf9p-54},
	{0x1.87427be915b5ap-1, 0x1.13686fdd33b9bp-2, 0x1.4effffe720c5p0, 0x1.43faf14bfb232p-54},
	{0x1.84f00aaa1f236p-1, 0x1.1980d6c95c3dcp-2, 0x1.5100014a73916p0, -0x1.13fd7bf953af4p-55},
	{0x1.82a4a187da7e5p-1, 0x1.1f8ff616bd867p-2, 0x1.52fffebd9e7fcp0, -0x1.e7d3c4dcabea4p-56},
	{0x1.8060199feca02p-1, 0x1.2595fcc9eb035p-2, 0x1.54fffe9456e1bp0, -0x1.7f42b8f991a9fp-58},
	{0x1.7e22545d033edp-1, 0x1.2b93059a4b207p-2, 0x1.570000a5b9401p0, 0x1.540fc9c34af1dp-54},
	{0x1.7beb3ae95c79bp-1, 0x1.318717cc48db3p-2, 0x1.58fffe63495bap0, -0x1.0fc3f53c1c9b9p-56},
	{0x1.79baa880aff4cp-1, 0x1.3772615f20871p-2, 0x1.5afffe5f941dbp0, 0x1.6fe0492accfcep-56},
	{0x1.77908182e0649p-1, 0x1.3d54f93d479efp-2, 0x1.5cffff9e3cf1cp0, -0x1.ebfcaf657d6a7p-54},
	{0x1.756cab2c7b696p-1, 0x1.432ef53c54172p-2, 0x1.5f0000e4faea7p0, -0x1.0bf06187087dp-54},
}
