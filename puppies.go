// Package puppies is the public API of the PuPPIeS reproduction:
// Transformation-Supported Personalized Privacy Preserving Partial Image
// Sharing (He et al., DSN 2016).
//
// The flow mirrors the paper's architecture (Fig. 5):
//
//   - The sender detects (or specifies) sensitive regions of a photo,
//     perturbs each region's DCT coefficients with a secret matrix pair,
//     and uploads the still-valid JPEG plus public parameters to an
//     untrusted photo-sharing platform (PSP).
//   - The PSP stores, serves, and freely transforms the image (scale,
//     crop, rotate, filter, recompress) with ordinary image tooling.
//   - Receivers who were granted a region's key pair recover that region
//     exactly — even from a transformed copy — while everyone else
//     (including the PSP) sees noise there.
//
// Quick start:
//
//	protected, err := puppies.Protect(img, puppies.ProtectOptions{})
//	// distribute protected.Keys to authorized receivers, upload
//	// protected.JPEG + protected.Params anywhere
//	recovered, err := puppies.Unprotect(protected.JPEG, protected.Params, protected.Keys)
//
// The implementation is stdlib-only; see DESIGN.md for the system
// inventory and EXPERIMENTS.md for the reproduction of the paper's
// evaluation.
package puppies

import (
	"bytes"
	"cmp"
	"fmt"
	"image"
	"io"
	"slices"

	"puppies/internal/core"
	"puppies/internal/imgplane"
	"puppies/internal/jpegc"
	"puppies/internal/keys"
	"puppies/internal/roi"
	"puppies/internal/transform"
)

// Re-exported types. Aliases keep the full method sets available to
// importers without exposing internal package paths.
type (
	// KeyPair is a region's secret: the (P_DC, P_AC) private matrix pair.
	KeyPair = keys.Pair
	// Identity is a receiver's X25519 key pair for secure key delivery.
	Identity = keys.Identity
	// Envelope is a sealed batch of key pairs in transit.
	Envelope = keys.Envelope
	// KeyStore holds an owner's key pairs and per-receiver grants.
	KeyStore = keys.Store
	// Rect is a pixel rectangle; regions are expanded to the 8-pixel block
	// grid at protect time.
	Rect = core.ROI
	// PublicData is the non-secret parameter block stored alongside a
	// protected image.
	PublicData = core.PublicData
	// TransformSpec describes a PSP-side transformation.
	TransformSpec = transform.Spec
	// Variant selects the perturbation scheme (-N, -B, -C, -Z).
	Variant = core.Variant
	// PrivacyLevel is the low/medium/high setting of paper Table IV.
	PrivacyLevel = core.PrivacyLevel
	// WrapPolicy controls wraparound handling (see core documentation).
	WrapPolicy = core.WrapPolicy
)

// Re-exported constants.
const (
	VariantN = core.VariantN
	VariantB = core.VariantB
	VariantC = core.VariantC
	VariantZ = core.VariantZ

	LevelLow    = core.LevelLow
	LevelMedium = core.LevelMedium
	LevelHigh   = core.LevelHigh

	WrapModular  = core.WrapModular
	WrapRecorded = core.WrapRecorded
)

// GenerateKeyPair creates a fresh cryptographically random key pair.
func GenerateKeyPair() (*KeyPair, error) { return keys.NewPair() }

// NewIdentity creates a receiver identity for sealed key delivery.
func NewIdentity() (*Identity, error) { return keys.NewIdentity() }

// SealKeys encrypts key pairs to a receiver's public key.
func SealKeys(receiverPub []byte, pairs []*KeyPair) (*Envelope, error) {
	return keys.Seal(receiverPub, pairs)
}

// NewKeyStore returns an empty owner-side key store.
func NewKeyStore() *KeyStore { return keys.NewStore() }

// DetectRegions runs the sender-side ROI recommendation (face, text and
// object detectors; overlaps split into disjoint block-aligned rectangles).
func DetectRegions(img image.Image) []Rect {
	planar, err := imgplane.FromStdImage(img)
	if err != nil {
		// An empty/degenerate image has no detectable regions.
		return nil
	}
	return roi.NewDetector().Recommend(planar)
}

// ProtectOptions configure Protect and ProtectJPEG.
type ProtectOptions struct {
	// Variant selects the scheme; empty selects VariantZ (the paper's most
	// storage-efficient variant).
	Variant Variant
	// Level selects the privacy level; empty selects LevelMedium (the
	// paper's recommended default).
	Level PrivacyLevel
	// Regions lists the rectangles to protect. Nil means run the ROI
	// detectors; if they find nothing, Protect returns an error.
	// ProtectJPEG cannot detect and requires explicit regions.
	Regions []Rect
	// Keys optionally supplies one key pair per region (matched by index).
	// Nil means generate a fresh pair per region.
	Keys []*KeyPair
	// KeysPerRegion > 1 enables the paper's §IV-D extension: each region is
	// protected by that many key pairs, cycled across 64-block groups. The
	// search space and the key-storage cost grow linearly; stripes can be
	// granted independently. Ignored when Keys is set.
	KeysPerRegion int
	// Quality is the JPEG quality for encoding (0 = 75). ProtectJPEG
	// ignores it and keeps the input's quantization tables.
	Quality int
	// TransformSupport requests the extra public parameters needed to
	// recover regions from pixel-domain-transformed copies (exact recovery
	// under scaling/rotation/filtering). Costs public-parameter bytes.
	TransformSupport bool
}

// Protected is the output of Protect.
type Protected struct {
	// JPEG is the perturbed image, a valid baseline JFIF stream any JPEG
	// tool can open.
	JPEG []byte
	// Params is the serialized PublicData to store next to the image.
	Params []byte
	// Keys holds the region secrets in region order (KeysPerRegion entries
	// per region when that option is set). Distribute them to authorized
	// receivers; never upload them.
	Keys []*KeyPair
	// Regions are the block-aligned rectangles actually protected.
	Regions []Rect
}

// Protect perturbs the sensitive regions of an image and returns the
// shareable artifacts.
func Protect(src image.Image, opts ProtectOptions) (*Protected, error) {
	img, err := jpegc.FromStdImage(src, jpegc.Options{Quality: opts.Quality})
	if err != nil {
		return nil, err
	}
	regions := opts.Regions
	if regions == nil {
		if regions = DetectRegions(src); len(regions) == 0 {
			img.Recycle()
			return nil, fmt.Errorf("puppies: no sensitive regions detected; pass Regions explicitly")
		}
	}
	return protect(img, regions, opts)
}

// ProtectJPEG protects regions of an existing baseline JPEG with minimal
// generation loss: coefficients are carried over from the input instead of
// being re-encoded from pixels, so the image is bit-exact outside the
// regions. Subsampled inputs (4:2:0/4:2:2/4:4:0) stay in native geometry
// when every region can be expanded to the input's MCU grid without
// colliding with a neighbor; otherwise chroma is upsampled and re-quantized
// once (Normalize444). Regions cannot be auto-detected on this path — pass
// them explicitly. Every other option works as in Protect.
func ProtectJPEG(jpegData []byte, opts ProtectOptions) (*Protected, error) {
	if len(opts.Regions) == 0 {
		return nil, fmt.Errorf("puppies: ProtectJPEG requires explicit Regions")
	}
	img, err := decode(jpegc.Decode, jpegData)
	if err != nil {
		return nil, err
	}
	return protect(img, opts.Regions, opts)
}

// protect is the sender pipeline both entry points share. It aligns the
// regions to img's block grid (and a subsampled img's MCU grid, else
// normalizes img to 4:4:4), perturbs them in place under opts' scheme and
// key policy, and encodes the image and its public parameters. It owns
// img and recycles the coefficient image it encoded: neither the
// PublicData nor the encoded bytes alias a block slab.
func protect(img *jpegc.Image, regions []Rect, opts ProtectOptions) (*Protected, error) {
	params, err := core.NewParams(cmp.Or(opts.Variant, VariantZ), cmp.Or(opts.Level, LevelMedium))
	if err != nil {
		return nil, err
	}
	params.Wrap = core.WrapRecorded
	params.TransformSupport = opts.TransformSupport
	scheme, err := core.NewScheme(params)
	if err != nil {
		return nil, err
	}

	for _, r := range regions {
		if _, err := r.AlignToBlocks(img.W, img.H); err != nil {
			return nil, fmt.Errorf("puppies: region %+v: %w", r, err)
		}
	}
	regions = roi.AlignAll(regions, img.W, img.H)
	if img.Subsampled() {
		if mcu, ok := alignRegionsToMCU(img, regions); ok {
			regions = mcu
		} else if img, err = img.Normalize444(); err != nil {
			return nil, err
		}
	}

	if opts.Keys != nil && len(opts.Keys) != len(regions) {
		return nil, fmt.Errorf("puppies: %d keys for %d regions", len(opts.Keys), len(regions))
	}
	if opts.KeysPerRegion < 0 {
		return nil, fmt.Errorf("puppies: negative KeysPerRegion")
	}
	perRegion := 1
	if opts.Keys == nil {
		perRegion = max(opts.KeysPerRegion, 1)
	}
	pairs := append([]*KeyPair(nil), opts.Keys...)
	for len(pairs) < len(regions)*perRegion {
		pair, err := keys.NewPair()
		if err != nil {
			return nil, err
		}
		pairs = append(pairs, pair)
	}
	assignments := make([]core.RegionAssignment, len(regions))
	for i, r := range regions {
		assignments[i] = core.RegionAssignment{ROI: r, Pairs: pairs[i*perRegion : (i+1)*perRegion]}
	}

	pd, _, err := scheme.EncryptImage(img, assignments)
	if err != nil {
		return nil, err
	}
	jpegBytes, err := encodeBytes(img, scheme.EncodeOptions())
	if err != nil {
		return nil, err
	}
	paramBytes, err := pd.Encode()
	if err != nil {
		return nil, err
	}
	img.Recycle()
	return &Protected{JPEG: jpegBytes, Params: paramBytes, Keys: pairs, Regions: regions}, nil
}

// encodeBytes entropy-codes a coefficient image to a JPEG stream.
func encodeBytes(img *jpegc.Image, opts jpegc.EncodeOptions) ([]byte, error) {
	var buf bytes.Buffer
	if err := img.Encode(&buf, opts); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// alignRegionsToMCU expands block-aligned regions outward to the MCU grid
// of a subsampled image. It reports failure when any expansion fails or two
// expanded regions collide.
func alignRegionsToMCU(img *jpegc.Image, regions []Rect) ([]Rect, bool) {
	maxH, maxV := img.MaxSampling()
	out := make([]Rect, len(regions))
	for i, r := range regions {
		a, err := r.AlignToMCU(img.W, img.H, maxH, maxV)
		if err != nil || slices.ContainsFunc(out[:i], a.Overlaps) {
			return nil, false
		}
		out[i] = a
	}
	return out, true
}

// decode reads a JPEG (jpegc.Decode) or PLNR (imgplane.DecodeBinary) stream.
func decode[T any](fn func(io.Reader) (T, error), data []byte) (T, error) {
	img, err := fn(bytes.NewReader(data))
	if err != nil {
		err = fmt.Errorf("puppies: decode image: %w", err)
	}
	return img, err
}

// receive is the preamble every receiver shares: it decodes the delivered
// copy, parses the public parameters stored next to it and records the
// transformation the PSP applied to the copy.
func receive[T any](fn func(io.Reader) (T, error), data, params []byte, spec TransformSpec) (T, *core.PublicData, error) {
	delivered, err := decode(fn, data)
	if err != nil {
		return delivered, nil, err
	}
	pd, err := core.DecodePublicData(params)
	if err != nil {
		return delivered, nil, err
	}
	pd.Transform = spec
	return delivered, pd, nil
}

// recoverJPEG recovers every region of a delivered JPEG copy whose keys are
// present. The identity spec decrypts the freshly decoded image in place;
// any other spec goes through core.ReconstructCoeff.
func recoverJPEG(jpegData, params []byte, spec TransformSpec, pairs []*KeyPair) (*jpegc.Image, error) {
	img, pd, err := receive(jpegc.Decode, jpegData, params, spec)
	if err != nil {
		return nil, err
	}
	if spec.Op != transform.OpNone {
		return core.ReconstructCoeff(img, pd, keyMap(pairs))
	}
	if _, err := core.DecryptImage(img, pd, keyMap(pairs)); err != nil {
		return nil, err
	}
	return img, nil
}

// keyMap indexes pairs by ID.
func keyMap(pairs []*KeyPair) map[string]*KeyPair {
	m := make(map[string]*KeyPair, len(pairs))
	for _, p := range pairs {
		if p != nil {
			m[p.ID] = p
		}
	}
	return m
}

// Unprotect decrypts every region whose key is present and returns the
// image. Regions without keys remain perturbed — the personalized-privacy
// behaviour. It is UnprotectTransformed with the identity spec.
func Unprotect(jpegData, params []byte, pairs []*KeyPair) (image.Image, error) {
	return UnprotectTransformed(jpegData, params, TransformSpec{Op: transform.OpNone}, pairs)
}

// UnprotectJPEG is the lossless counterpart of Unprotect: it returns the
// recovered coefficient stream as JPEG bytes instead of decoded pixels, so
// a receiver can store the recovered file without generation loss.
func UnprotectJPEG(jpegData, params []byte, pairs []*KeyPair) ([]byte, error) {
	img, err := recoverJPEG(jpegData, params, TransformSpec{Op: transform.OpNone}, pairs)
	if err != nil {
		return nil, err
	}
	defer img.Recycle() // the freshly decoded copy, decrypted in place
	return encodeBytes(img, jpegc.EncodeOptions{Tables: jpegc.TablesOptimized})
}

// UnprotectTransformed recovers an image that the PSP transformed in the
// coefficient domain (rotations by multiples of 90 degrees, flips,
// block-aligned crops); spec must describe the PSP's transformation.
// Pixel-domain transforms go through UnprotectTransformedPixels. This
// package does not recover recompressed copies.
func UnprotectTransformed(jpegData, params []byte, spec TransformSpec, pairs []*KeyPair) (image.Image, error) {
	img, err := recoverJPEG(jpegData, params, spec, pairs)
	if err != nil {
		return nil, err
	}
	planar, err := img.ToPlanar()
	if err != nil {
		return nil, err
	}
	return planar.Quantize8().ToStdImage(), nil
}

// EncodeJPEG encodes any stdlib image as a baseline 4:4:4 JPEG using this
// library's codec (quality 0 selects 75).
func EncodeJPEG(src image.Image, quality int) ([]byte, error) {
	img, err := jpegc.FromStdImage(src, jpegc.Options{Quality: quality})
	if err != nil {
		return nil, err
	}
	defer img.Recycle() // the bytes do not alias a block slab
	return encodeBytes(img, jpegc.EncodeOptions{})
}

// PSPTransform applies a transformation to a JPEG exactly as a PSP would —
// with no knowledge of any protection in it — and returns the re-encoded
// result. Useful for driving the scheme without the HTTP simulator.
func PSPTransform(jpegData []byte, spec TransformSpec) ([]byte, error) {
	img, err := decode(jpegc.Decode, jpegData)
	if err != nil {
		return nil, err
	}
	out, err := transform.Apply(img, spec)
	if err != nil {
		return nil, err
	}
	if out != img {
		img.Recycle() // every transform writes fresh grids
	}
	return encodeBytes(out, jpegc.EncodeOptions{Tables: jpegc.TablesOptimized})
}

// PSPTransformPixels applies a pixel-domain transformation and returns the
// result as a lossless PLNR stream — the high-fidelity delivery path that
// UnprotectTransformedPixels consumes.
func PSPTransformPixels(jpegData []byte, spec TransformSpec) ([]byte, error) {
	img, err := decode(jpegc.Decode, jpegData)
	if err != nil {
		return nil, err
	}
	pix, err := img.ToPlanar()
	if err != nil {
		return nil, err
	}
	out, err := transform.ApplyPlanar(pix, spec)
	if err != nil {
		return nil, err
	}
	return out.MarshalBinary()
}

// UnprotectTransformedPixels recovers from a pixel-domain transformed copy
// (scaling, arbitrary rotation, filtering, unaligned crops) delivered as a
// lossless PLNR stream (see the psp package's /pixels endpoint). Exact when
// the image was protected with the default WrapRecorded policy (and, for
// VariantZ, with TransformSupport).
func UnprotectTransformedPixels(plnrData, params []byte, spec TransformSpec, pairs []*KeyPair) (image.Image, error) {
	transformed, pd, err := receive(imgplane.DecodeBinary, plnrData, params, spec)
	if err != nil {
		return nil, err
	}
	out, err := core.ReconstructPixels(transformed, pd, keyMap(pairs))
	if err != nil {
		return nil, err
	}
	return out.Quantize8().ToStdImage(), nil
}
