package core

import (
	"encoding/json"
	"errors"
	"fmt"

	"puppies/internal/dct"
	"puppies/internal/transform"
)

// PublicDataVersion is the current public-parameter envelope format. Encode
// stamps it; DecodePublicData accepts this version and the pre-versioning
// legacy form (0) and rejects anything newer with ErrUnsupportedVersion —
// silently misreading a future format would hand receivers wrong recovery
// parameters, which is worse than failing.
const PublicDataVersion = 1

// ErrUnsupportedVersion marks a public-parameter document written by a
// newer format than this build understands. Branch with errors.Is.
var ErrUnsupportedVersion = errors.New("core: unsupported public data version")

// CoeffPos identifies one coefficient inside a perturbed region: channel,
// region-local block index (in the *original* region grid, stable across
// PSP-side cropping) and zigzag coefficient position (0 = DC).
type CoeffPos struct {
	Channel uint8
	Block   uint32
	Coeff   uint8
}

// Packed position encoding (paper §IV-B.4): 28 bits per record — 2 bits for
// the channel ("layer"), 20 bits for the block index, 6 bits for the
// coefficient index. (The paper's prose says 2+16+6 bits yet calls the
// total 28; 20 block bits make the total correct and support
// high-resolution images, so that is what we pack.)
const (
	posBits      = 28
	maxPosBlock  = 1 << 20
	posChanBits  = 2
	posBlockBits = 20
	posCoeffBits = 6
)

// PosList is a list of coefficient positions serialized in the packed
// 28-bit format (base64 inside JSON).
type PosList []CoeffPos

// Pack serializes the list into the packed 28-bit bitstream.
func (l PosList) Pack() ([]byte, error) {
	out := make([]byte, (len(l)*posBits+7)/8)
	bit := 0
	put := func(v uint32, n int) {
		for i := n - 1; i >= 0; i-- {
			if v>>uint(i)&1 == 1 {
				out[bit/8] |= 1 << uint(7-bit%8)
			}
			bit++
		}
	}
	for _, p := range l {
		if p.Channel > 3 {
			return nil, fmt.Errorf("core: channel %d exceeds 2-bit field", p.Channel)
		}
		if p.Block >= maxPosBlock {
			return nil, fmt.Errorf("core: block index %d exceeds 20-bit field", p.Block)
		}
		if p.Coeff >= dct.BlockLen {
			return nil, fmt.Errorf("core: coefficient index %d exceeds 6-bit field", p.Coeff)
		}
		put(uint32(p.Channel), posChanBits)
		put(p.Block, posBlockBits)
		put(uint32(p.Coeff), posCoeffBits)
	}
	return out, nil
}

// UnpackPosList parses a packed bitstream containing n records.
func UnpackPosList(data []byte, n int) (PosList, error) {
	if need := (n*posBits + 7) / 8; len(data) != need {
		return nil, fmt.Errorf("core: packed position list is %d bytes, want %d for %d records",
			len(data), need, n)
	}
	out := make(PosList, n)
	bit := 0
	get := func(nBits int) uint32 {
		var v uint32
		for i := 0; i < nBits; i++ {
			v <<= 1
			if data[bit/8]>>uint(7-bit%8)&1 == 1 {
				v |= 1
			}
			bit++
		}
		return v
	}
	for i := 0; i < n; i++ {
		out[i] = CoeffPos{
			Channel: uint8(get(posChanBits)),
			Block:   get(posBlockBits),
			Coeff:   uint8(get(posCoeffBits)),
		}
	}
	return out, nil
}

// posListJSON is the wire form: record count + packed bytes.
type posListJSON struct {
	N      int    `json:"n"`
	Packed []byte `json:"packed,omitempty"`
}

// MarshalJSON implements json.Marshaler using the packed encoding.
func (l PosList) MarshalJSON() ([]byte, error) {
	packed, err := l.Pack()
	if err != nil {
		return nil, err
	}
	return json.Marshal(posListJSON{N: len(l), Packed: packed})
}

// UnmarshalJSON implements json.Unmarshaler.
func (l *PosList) UnmarshalJSON(data []byte) error {
	var w posListJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if w.N < 0 {
		return fmt.Errorf("core: negative position count %d", w.N)
	}
	got, err := UnpackPosList(w.Packed, w.N)
	if err != nil {
		return err
	}
	*l = got
	return nil
}

// SizeBytes returns the public storage cost of the list at the paper's
// 28-bits-per-record accounting.
func (l PosList) SizeBytes() int { return (len(l)*posBits + 7) / 8 }

// RegionParams is the public (non-secret) per-region data stored alongside
// the perturbed image (paper §III-C: "mR, K, position and size of ROI,
// ZInd, ID of the private matrix"). Leaking it does not break privacy.
type RegionParams struct {
	// ROI is the region rectangle in the stored image's coordinates.
	ROI ROI `json:"roi"`
	// Variant, MR, K echo the scheme parameters used for this region.
	Variant Variant `json:"variant"`
	MR      int     `json:"mr"`
	K       int     `json:"k"`
	// Wrap is the wraparound policy the region was encrypted with.
	Wrap WrapPolicy `json:"wrap"`
	// KeyID names the matrix pair that encrypted this region.
	KeyID string `json:"keyId"`
	// KeyIDs, when set, lists multiple matrix pairs cycled across the
	// region's block groups (the §IV-D extension: block group g of 64
	// blocks uses pair KeyIDs[g mod len]). KeyID is empty in that case.
	KeyIDs []string `json:"keyIds,omitempty"`
	// ZInd lists AC coefficients that became zero under perturbation
	// (VariantZ only, Algorithm 2).
	ZInd PosList `json:"zind,omitempty"`
	// WInd lists coefficients whose perturbation wrapped (WrapRecorded
	// policy only); needed for exact pixel-domain transform recovery.
	WInd PosList `json:"wind,omitempty"`
	// Support lists the AC coefficients that were actually perturbed
	// (VariantZ with TransformSupport only); pixel-domain shadow
	// reconstruction needs it because the receiver of a transformed image
	// cannot see which stored coefficients were zero.
	Support PosList `json:"support,omitempty"`
	// SupportRecorded marks a region whose Support was recorded, so an
	// empty list (no block of the region has a nonzero AC coefficient) is
	// told apart from one never recorded. Documents written before the
	// flag carry a non-empty Support alone.
	SupportRecorded bool `json:"supportRecorded,omitempty"`

	// BaseBX/BaseBY/BaseBW locate this region inside the original region's
	// block grid; they change only when the PSP crops the image. The DC
	// perturbation index is (blockIndex mod 64) over the *original* grid,
	// so decryption after cropping must know the original origin and width.
	BaseBX int `json:"baseBx,omitempty"`
	BaseBY int `json:"baseBy,omitempty"`
	BaseBW int `json:"baseBw,omitempty"`
}

// ParamsSizeBytes is the storage cost of the region's public parameters at
// the paper's accounting: fixed header plus 28 bits per index record.
func (rp *RegionParams) ParamsSizeBytes() int {
	const header = 32 // ROI + variant + mR + K + key ID, conservative
	extraKeys := 0
	if len(rp.KeyIDs) > 1 {
		extraKeys = (len(rp.KeyIDs) - 1) * 16
	}
	return header + extraKeys + rp.ZInd.SizeBytes() + rp.WInd.SizeBytes() + rp.Support.SizeBytes()
}

// KeyIDForBlock returns the matrix-pair ID protecting original-grid block
// index k (§IV-D multi-matrix regions cycle pairs every 64 blocks).
func (rp *RegionParams) KeyIDForBlock(k int) string {
	if len(rp.KeyIDs) == 0 {
		return rp.KeyID
	}
	return rp.KeyIDs[stripe(k, len(rp.KeyIDs))]
}

// baseBW returns the width in blocks of the original region grid; zero
// BaseBW (a region never cropped) means the region's own width.
func (rp *RegionParams) baseBW() int {
	if rp.BaseBW != 0 {
		return rp.BaseBW
	}
	return rp.ROI.W / dct.BlockSize
}

// AllKeyIDs returns every pair ID the region references.
func (rp *RegionParams) AllKeyIDs() []string {
	if len(rp.KeyIDs) == 0 {
		return []string{rp.KeyID}
	}
	return append([]string(nil), rp.KeyIDs...)
}

// PublicData is everything the PSP stores publicly next to the perturbed
// image bytes.
type PublicData struct {
	// Version is the envelope format version. Zero (legacy documents
	// predating versioning) is read as the v1 layout; Encode always
	// stamps PublicDataVersion.
	Version  int `json:"v,omitempty"`
	W        int `json:"w"`
	H        int `json:"h"`
	Channels int `json:"channels"`
	// LumQuant and ChromQuant are the stored image's quantization tables;
	// receivers need them to build shadow ROIs and to replay recompression.
	LumQuant   dct.QuantTable `json:"lumQuant"`
	ChromQuant dct.QuantTable `json:"chromQuant"`
	// Sampling lists per-channel JPEG sampling factors for natively
	// subsampled images (4:2:0/4:2:2/4:4:0); empty means every channel is
	// full resolution (the legacy 4:4:4/grayscale layout), keeping those
	// documents byte-identical to earlier versions. Receivers need it to
	// project region windows onto the chroma block grids.
	Sampling []CompSampling `json:"sampling,omitempty"`
	// Regions holds one entry per perturbed ROI.
	Regions []RegionParams `json:"regions"`
	// Transform records what the PSP did to the stored image (OpNone if
	// untouched); receivers replay it on shadow ROIs.
	Transform transform.Spec `json:"transform"`
}

// Validate checks structural consistency.
func (pd *PublicData) Validate() error {
	if pd.Version < 0 || pd.Version > PublicDataVersion {
		return fmt.Errorf("%w: %d (this build reads <= %d)", ErrUnsupportedVersion, pd.Version, PublicDataVersion)
	}
	if pd.W <= 0 || pd.H <= 0 {
		return fmt.Errorf("core: public data has invalid dimensions %dx%d", pd.W, pd.H)
	}
	if pd.Channels != 1 && pd.Channels != 3 {
		return fmt.Errorf("core: public data has %d channels", pd.Channels)
	}
	if err := validateSampling(pd.Sampling, pd.Channels); err != nil {
		return err
	}
	for i := range pd.Regions {
		rp := &pd.Regions[i]
		if err := rp.ROI.Validate(pd.W, pd.H); err != nil {
			return fmt.Errorf("core: region %d: %w", i, err)
		}
		if !rp.Variant.Valid() {
			return fmt.Errorf("core: region %d: unknown variant %q", i, rp.Variant)
		}
		// Base fields index into the original region grid; negative values
		// (possible only in hand-crafted parameter files) would index key
		// matrices out of range.
		if rp.BaseBX < 0 || rp.BaseBY < 0 || rp.BaseBW < 0 {
			return fmt.Errorf("core: region %d: negative base offsets (%d,%d,%d)",
				i, rp.BaseBX, rp.BaseBY, rp.BaseBW)
		}
		if rp.KeyID == "" && len(rp.KeyIDs) == 0 {
			return fmt.Errorf("core: region %d: no key id", i)
		}
		if rp.KeyID != "" && len(rp.KeyIDs) > 0 {
			return fmt.Errorf("core: region %d: both KeyID and KeyIDs set", i)
		}
		for j, id := range rp.KeyIDs {
			if id == "" {
				return fmt.Errorf("core: region %d: empty key id at %d", i, j)
			}
		}
		for j := 0; j < i; j++ {
			if rp.ROI.Overlaps(pd.Regions[j].ROI) {
				return fmt.Errorf("core: regions %d and %d overlap", j, i)
			}
		}
	}
	return nil
}

// Encode serializes the public data as JSON, stamping the current format
// version.
func (pd *PublicData) Encode() ([]byte, error) {
	if err := pd.Validate(); err != nil {
		return nil, err
	}
	out := *pd
	out.Version = PublicDataVersion
	return json.Marshal(&out)
}

// DecodePublicData parses and validates serialized public data.
func DecodePublicData(data []byte) (*PublicData, error) {
	var pd PublicData
	if err := json.Unmarshal(data, &pd); err != nil {
		return nil, fmt.Errorf("core: decode public data: %w", err)
	}
	if err := pd.Validate(); err != nil {
		return nil, err
	}
	return &pd, nil
}

// ParamsSizeBytes sums the per-region parameter costs.
func (pd *PublicData) ParamsSizeBytes() int {
	total := 0
	for i := range pd.Regions {
		total += pd.Regions[i].ParamsSizeBytes()
	}
	return total
}
