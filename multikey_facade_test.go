package puppies

import (
	"image"
	"testing"
)

// protectEntryPoints returns both protect entry points bound to one source:
// Protect on its pixels and ProtectJPEG on the library's own encoding of it.
// The §IV-D key policy must hold through either.
func protectEntryPoints(t *testing.T, src image.Image) map[string]func(ProtectOptions) (*Protected, error) {
	jpg := mustPlainJPEG(t, src)
	return map[string]func(ProtectOptions) (*Protected, error){
		"Protect":     func(o ProtectOptions) (*Protected, error) { return Protect(src, o) },
		"ProtectJPEG": func(o ProtectOptions) (*Protected, error) { return ProtectJPEG(jpg, o) },
	}
}

func TestProtectMultiKeyPerRegion(t *testing.T) {
	src := sampleImage(t, 9)
	region := Rect{X: 64, Y: 64, W: 128, H: 128} // 256 blocks: 4 key groups
	for name, protect := range protectEntryPoints(t, src) {
		t.Run(name, func(t *testing.T) {
			prot, err := protect(ProtectOptions{
				Regions:       []Rect{region},
				Variant:       VariantC,
				KeysPerRegion: 3,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(prot.Keys) != 3 {
				t.Fatalf("got %d keys, want 3", len(prot.Keys))
			}

			// All keys recover the region at JPEG fidelity.
			rec, err := Unprotect(prot.JPEG, prot.Params, prot.Keys)
			if err != nil {
				t.Fatal(err)
			}
			if p := rectPSNR(t, src, rec, prot.Regions[0]); p < 28 {
				t.Errorf("full recovery PSNR %.1f dB", p)
			}

			// A single stripe key leaves most of the region hidden.
			partial, err := Unprotect(prot.JPEG, prot.Params, prot.Keys[:1])
			if err != nil {
				t.Fatal(err)
			}
			if p := rectPSNR(t, src, partial, prot.Regions[0]); p > 25 {
				t.Errorf("single stripe key revealed too much (PSNR %.1f dB)", p)
			}
		})
	}
}

func TestProtectKeysPerRegionValidation(t *testing.T) {
	for name, protect := range protectEntryPoints(t, sampleImage(t, 9)) {
		if _, err := protect(ProtectOptions{
			Regions:       []Rect{{X: 0, Y: 0, W: 16, H: 16}},
			KeysPerRegion: -1,
		}); err == nil {
			t.Errorf("%s: negative KeysPerRegion accepted", name)
		}
	}
}
