package securejoin

import (
	"bytes"
	"testing"
)

// fuzzSeeds returns real encodings of one d=5 token and one d=5 row
// ciphertext, plus their truncated, retired-layout and bit-flipped
// variants, as seeds for the codec fuzzers.
func fuzzSeeds(f *testing.F) (token, ciphertext []byte) {
	f.Helper()
	s, err := Setup(Params{M: 1, T: 1}, nil)
	if err != nil {
		f.Fatal(err)
	}
	ct, err := s.Encrypt(Row{JoinValue: []byte("x"), Attrs: [][]byte{[]byte("v")}})
	if err != nil {
		f.Fatal(err)
	}
	q, err := s.NewQuery(Selection{0: [][]byte{[]byte("v")}}, Selection{})
	if err != nil {
		f.Fatal(err)
	}
	if token, err = q.TokenA.MarshalBinary(); err != nil {
		f.Fatal(err)
	}
	if ciphertext, err = ct.MarshalBinary(); err != nil {
		f.Fatal(err)
	}
	return token, ciphertext
}

func addCodecSeeds(f *testing.F, valid, other []byte) {
	f.Add(valid)
	f.Add(other) // the other codec's layout, as a retired encoding would be
	f.Add(valid[:len(valid)-1])
	f.Add(valid[:4])
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	flipped := bytes.Clone(valid)
	flipped[len(flipped)/2] ^= 1
	f.Add(flipped)
}

// FuzzRowCiphertextUnmarshal: decoding arbitrary bytes must never
// panic, and whatever decodes must re-encode to exactly the input (the
// encoding is canonical, so a server cannot be handed two byte strings
// for one ciphertext).
func FuzzRowCiphertextUnmarshal(f *testing.F) {
	token, ciphertext := fuzzSeeds(f)
	addCodecSeeds(f, ciphertext, token)
	f.Fuzz(func(t *testing.T, data []byte) {
		var ct RowCiphertext
		if err := ct.UnmarshalBinary(data); err != nil {
			return
		}
		out, err := ct.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("ciphertext re-encodes to %x, decoded from %x", out, data)
		}
	})
}

// FuzzTokenUnmarshal is FuzzRowCiphertextUnmarshal for tokens, whose
// G2 elements also pass the subgroup membership test.
func FuzzTokenUnmarshal(f *testing.F) {
	token, ciphertext := fuzzSeeds(f)
	addCodecSeeds(f, token, ciphertext)
	f.Fuzz(func(t *testing.T, data []byte) {
		var tk Token
		if err := tk.UnmarshalBinary(data); err != nil {
			return
		}
		out, err := tk.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("token re-encodes to %x, decoded from %x", out, data)
		}
	})
}
