package fec

// GF(2^8) arithmetic with the primitive polynomial x^8+x^4+x^3+x^2+1
// (0x11d), the field used by the vast majority of software Reed–Solomon
// implementations. exp is doubled so products of logs never need a modulo.

const gfPoly = 0x11d

// The tables are built by a variable initializer, not init(), so that
// package-level values which construct codes (the profile ladder) are
// ordered after them.
var gfExp, gfLog = gfTables()

func gfTables() (exp [512]byte, log [256]int) {
	x := 1
	for i := 0; i < 255; i++ {
		exp[i] = byte(x)
		log[x] = i
		x <<= 1
		if x&0x100 != 0 {
			x ^= gfPoly
		}
	}
	for i := 255; i < 512; i++ {
		exp[i] = exp[i-255]
	}
	log[0] = -1 // log(0) is undefined; callers must special-case zero.
	return exp, log
}

// gfAdd returns a+b in GF(2^8) (XOR; subtraction is identical).
func gfAdd(a, b byte) byte { return a ^ b }

// gfMul returns a·b in GF(2^8).
func gfMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExp[gfLog[a]+gfLog[b]]
}

// gfDiv returns a/b in GF(2^8); division by zero panics.
func gfDiv(a, b byte) byte {
	if b == 0 {
		panic("fec: GF(256) division by zero")
	}
	if a == 0 {
		return 0
	}
	return gfExp[gfLog[a]-gfLog[b]+255]
}

// gfInv returns the multiplicative inverse of a; zero panics.
func gfInv(a byte) byte {
	if a == 0 {
		panic("fec: GF(256) inverse of zero")
	}
	return gfExp[255-gfLog[a]]
}

// gfPow returns a^n for n ≥ 0.
func gfPow(a byte, n int) byte {
	if n == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	return gfExp[(gfLog[a]*n)%255]
}

// polynomial helpers; coefficient slices are ordered highest degree first,
// matching the byte order of a systematic codeword (data bytes then parity).

// polyEval evaluates p at x via Horner's rule.
func polyEval(p []byte, x byte) byte {
	var acc byte
	for _, c := range p {
		acc = gfMul(acc, x) ^ c
	}
	return acc
}

// polyMul returns a·b.
func polyMul(a, b []byte) []byte {
	out := make([]byte, len(a)+len(b)-1)
	for i, ca := range a {
		if ca == 0 {
			continue
		}
		for j, cb := range b {
			out[i+j] ^= gfMul(ca, cb)
		}
	}
	return out
}

// polyScale returns p scaled by s.
func polyScale(p []byte, s byte) []byte {
	out := make([]byte, len(p))
	for i, c := range p {
		out[i] = gfMul(c, s)
	}
	return out
}

// polyAdd returns a+b (XOR), aligning to the right (lowest degrees).
func polyAdd(a, b []byte) []byte {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	out := make([]byte, n)
	copy(out[n-len(a):], a)
	for i, c := range b {
		out[n-len(b)+i] ^= c
	}
	return out
}

// polyTrim removes leading zero coefficients (keeping at least one).
func polyTrim(p []byte) []byte {
	i := 0
	for i < len(p)-1 && p[i] == 0 {
		i++
	}
	return p[i:]
}
