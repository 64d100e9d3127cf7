// Package imgplane provides the planar image model used throughout the
// PuPPIeS pipeline: full-range YUV (JFIF BT.601) images stored as unclamped
// float32 planes.
//
// Keeping samples unclamped is deliberate. PuPPIeS reconstruction after a
// PSP-side pixel-domain transform relies on the transform being linear:
// f(B + P) = f(B) + f(P) (paper §IV-C.1). Clamping to [0, 255] inside the
// transform would break linearity for perturbed regions, so the PSP pipeline
// in this codebase operates on unclamped planes and clamps only at final
// display/export time.
package imgplane

import (
	"fmt"
	"image"
	"image/color"
	"math"

	"puppies/internal/parallel"
)

// rowGrain is the parallel chunk size for per-pixel conversion loops, in
// image rows.
const rowGrain = 64

// Plane is a single image channel with unclamped float32 samples in
// row-major order.
type Plane struct {
	W, H int
	Pix  []float32
}

// NewPlane allocates a zeroed plane of the given dimensions.
//
// Invariant (audited): w and h must be positive. This panic is a
// programmer-error guard, not an input validator — every path that starts
// from untrusted bytes or caller-supplied values validates dimensions
// before reaching it (jpegc.parseSOF rejects zero/oversized SOF dims,
// imgplane.DecodeBinary and imgplane.New return errors, FromStdImage
// rejects empty bounds), so all remaining callers pass dimensions derived
// from an already-validated image.
func NewPlane(w, h int) *Plane {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("imgplane: invalid plane size %dx%d", w, h))
	}
	return &Plane{W: w, H: h, Pix: make([]float32, w*h)}
}

// At returns the sample at (x, y). Coordinates outside the plane are clamped
// to the nearest edge sample (replicate padding), which is the conventional
// boundary handling for block and filter operations.
func (p *Plane) At(x, y int) float32 {
	if x < 0 {
		x = 0
	} else if x >= p.W {
		x = p.W - 1
	}
	if y < 0 {
		y = 0
	} else if y >= p.H {
		y = p.H - 1
	}
	return p.Pix[y*p.W+x]
}

// Set writes the sample at (x, y). Out-of-bounds writes are ignored.
func (p *Plane) Set(x, y int, v float32) {
	if x < 0 || x >= p.W || y < 0 || y >= p.H {
		return
	}
	p.Pix[y*p.W+x] = v
}

// Clone returns a deep copy of the plane.
func (p *Plane) Clone() *Plane {
	out := NewPlane(p.W, p.H)
	copy(out.Pix, p.Pix)
	return out
}

// Add returns p + o sample-wise. Planes must have equal dimensions.
func (p *Plane) Add(o *Plane) (*Plane, error) {
	if p.W != o.W || p.H != o.H {
		return nil, fmt.Errorf("imgplane: add size mismatch %dx%d vs %dx%d", p.W, p.H, o.W, o.H)
	}
	out := NewPlane(p.W, p.H)
	for i := range p.Pix {
		out.Pix[i] = p.Pix[i] + o.Pix[i]
	}
	return out, nil
}

// Sub returns p - o sample-wise. Planes must have equal dimensions.
func (p *Plane) Sub(o *Plane) (*Plane, error) {
	if p.W != o.W || p.H != o.H {
		return nil, fmt.Errorf("imgplane: sub size mismatch %dx%d vs %dx%d", p.W, p.H, o.W, o.H)
	}
	out := NewPlane(p.W, p.H)
	for i := range p.Pix {
		out.Pix[i] = p.Pix[i] - o.Pix[i]
	}
	return out, nil
}

// Image is a planar YUV image. Planes holds either one plane (monochrome,
// Y only) or three planes (Y, U, V), all of identical dimensions (4:4:4).
type Image struct {
	Planes []*Plane
}

// Channel indices into Image.Planes for color images.
const (
	ChannelY = 0
	ChannelU = 1
	ChannelV = 2
)

// New allocates a zeroed image with the given number of channels (1 or 3).
func New(w, h, channels int) (*Image, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("imgplane: invalid image size %dx%d", w, h)
	}
	if channels != 1 && channels != 3 {
		return nil, fmt.Errorf("imgplane: channels must be 1 or 3, got %d", channels)
	}
	img := &Image{Planes: make([]*Plane, channels)}
	for i := range img.Planes {
		img.Planes[i] = NewPlane(w, h)
	}
	return img, nil
}

// W returns the image width in pixels.
func (m *Image) W() int { return m.Planes[0].W }

// H returns the image height in pixels.
func (m *Image) H() int { return m.Planes[0].H }

// Channels returns the number of planes (1 or 3).
func (m *Image) Channels() int { return len(m.Planes) }

// Clone returns a deep copy of the image.
func (m *Image) Clone() *Image {
	out := &Image{Planes: make([]*Plane, len(m.Planes))}
	for i, p := range m.Planes {
		out.Planes[i] = p.Clone()
	}
	return out
}

// Validate checks structural invariants: 1 or 3 planes, all the same size.
func (m *Image) Validate() error {
	if len(m.Planes) != 1 && len(m.Planes) != 3 {
		return fmt.Errorf("imgplane: image has %d planes, want 1 or 3", len(m.Planes))
	}
	w, h := m.Planes[0].W, m.Planes[0].H
	for i, p := range m.Planes {
		if p.W != w || p.H != h {
			return fmt.Errorf("imgplane: plane %d is %dx%d, want %dx%d", i, p.W, p.H, w, h)
		}
		if len(p.Pix) != p.W*p.H {
			return fmt.Errorf("imgplane: plane %d has %d samples, want %d", i, len(p.Pix), p.W*p.H)
		}
	}
	return nil
}

// Clamp8 limits every sample to the displayable 8-bit range [0, 255],
// in place, and returns the image. Standard 8-bit image pipelines (libjpeg
// and friends) clamp at every decode step; PuPPIeS's lossless-linear PSP
// path avoids this, but baseline comparisons (P3) model the clamped flow.
func (m *Image) Clamp8() *Image {
	for _, p := range m.Planes {
		for i, v := range p.Pix {
			if v < 0 {
				p.Pix[i] = 0
			} else if v > 255 {
				p.Pix[i] = 255
			}
		}
	}
	return m
}

// Quantize8 rounds every sample to the nearest integer and clamps to
// [0, 255], in place, and returns the image: the effect of materializing
// the image in a standard uint8 pixel buffer.
func (m *Image) Quantize8() *Image {
	for _, p := range m.Planes {
		for i, v := range p.Pix {
			r := float32(math.Round(float64(v)))
			if r < 0 {
				r = 0
			} else if r > 255 {
				r = 255
			}
			p.Pix[i] = r
		}
	}
	return m
}

// RGBToYUV converts full-range 8-bit RGB to JFIF BT.601 YUV. U and V are
// centered at 128.
func RGBToYUV(r, g, b float32) (y, u, v float32) {
	y = 0.299*r + 0.587*g + 0.114*b
	u = -0.168736*r - 0.331264*g + 0.5*b + 128
	v = 0.5*r - 0.418688*g - 0.081312*b + 128
	return y, u, v
}

// YUVToRGB converts JFIF BT.601 YUV back to full-range RGB. The result is
// not clamped; callers exporting to 8-bit images should use clamp8.
func YUVToRGB(y, u, v float32) (r, g, b float32) {
	u -= 128
	v -= 128
	r = y + 1.402*v
	g = y - 0.344136*u - 0.714136*v
	b = y + 1.772*u
	return r, g, b
}

func clamp8(v float32) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v + 0.5)
}

// FromStdImage converts any stdlib image to a 3-channel planar YUV image.
// Images with empty bounds (possible in caller-supplied decoded images) are
// rejected with an error rather than panicking downstream.
func FromStdImage(src image.Image) (*Image, error) {
	b := src.Bounds()
	img, err := New(b.Dx(), b.Dy(), 3)
	if err != nil {
		return nil, err
	}
	w := img.W()
	pY := img.Planes[ChannelY].Pix
	pU := img.Planes[ChannelU].Pix
	pV := img.Planes[ChannelV].Pix
	read := RowReader(src)
	// Rows write disjoint plane indices; src is only read.
	parallel.For(b.Dy(), rowGrain, func(lo, hi int) {
		for y := lo; y < hi; y++ {
			read(y, pY[y*w:][:w], pU[y*w:][:w], pV[y*w:][:w])
		}
	})
	return img, nil
}

// RowReader returns a function that converts pixel row y of src (counted
// from src.Bounds().Min.Y) to YUV with RGBToYUV, writing one sample per
// column into dy, du and dv, each src.Bounds().Dx() long. It only reads
// src, so rows may be converted concurrently.
//
// The common stdlib formats get direct Pix-slice readers: the generic
// At(x, y).RGBA() route boxes a color.Color per pixel, which turns a
// megapixel conversion into a million allocations. Each typed reader
// produces the exact 8-bit channel values the interface route's
// 16-bit-to-8-bit shift yields (NRGBA premultiplies with the stdlib's own
// *0x101 * alpha / 0xff arithmetic; YCbCr calls color.YCbCr.RGBA on an
// unboxed value), so results are bit-identical. Every other image that
// implements image.RGBA64Image (16-bit, CMYK and paletted images among the
// stdlib's) is read through RGBA64At, which its contract makes equal to
// At(x, y).RGBA().
func RowReader(src image.Image) func(y int, dy, du, dv []float32) {
	b := src.Bounds()
	switch s := src.(type) {
	case *image.RGBA:
		return func(y int, dy, du, dv []float32) {
			pix := s.Pix[s.PixOffset(b.Min.X, b.Min.Y+y):][:4*len(dy)]
			du, dv = du[:len(dy)], dv[:len(dy)]
			for x := range dy {
				p := pix[4*x:][:3]
				dy[x], du[x], dv[x] = RGBToYUV(float32(p[0]), float32(p[1]), float32(p[2]))
			}
		}
	case *image.NRGBA:
		prem := func(v, a uint8) float32 {
			r32 := uint32(v) * 0x101
			r32 = r32 * uint32(a) / 0xff
			return float32(r32 >> 8)
		}
		return func(y int, dy, du, dv []float32) {
			pix := s.Pix[s.PixOffset(b.Min.X, b.Min.Y+y):][:4*len(dy)]
			du, dv = du[:len(dy)], dv[:len(dy)]
			for x := range dy {
				p := pix[4*x:][:4]
				dy[x], du[x], dv[x] = RGBToYUV(prem(p[0], p[3]), prem(p[1], p[3]), prem(p[2], p[3]))
			}
		}
	case *image.Gray:
		return func(y int, dy, du, dv []float32) {
			pix := s.Pix[s.PixOffset(b.Min.X, b.Min.Y+y):][:len(dy)]
			du, dv = du[:len(dy)], dv[:len(dy)]
			for x, v := range pix {
				g := float32(v)
				dy[x], du[x], dv[x] = RGBToYUV(g, g, g)
			}
		}
	case *image.YCbCr:
		return func(y int, dy, du, dv []float32) {
			py := b.Min.Y + y
			luma := s.Y[s.YOffset(b.Min.X, py):][:len(dy)]
			du, dv = du[:len(dy)], dv[:len(dy)]
			for x, l := range luma {
				ci := s.COffset(b.Min.X+x, py)
				r16, g16, b16, _ := color.YCbCr{Y: l, Cb: s.Cb[ci], Cr: s.Cr[ci]}.RGBA()
				dy[x], du[x], dv[x] = RGBToYUV(float32(r16>>8), float32(g16>>8), float32(b16>>8))
			}
		}
	case image.RGBA64Image:
		// RGBA64At is At(x, y).RGBA() without boxing the color: the
		// stdlib's 16-bit, CMYK and paletted images implement it by
		// calling RGBA on their unboxed color values.
		return func(y int, dy, du, dv []float32) {
			du, dv = du[:len(dy)], dv[:len(dy)]
			for x := range dy {
				c := s.RGBA64At(b.Min.X+x, b.Min.Y+y)
				dy[x], du[x], dv[x] = RGBToYUV(float32(c.R>>8), float32(c.G>>8), float32(c.B>>8))
			}
		}
	default:
		return func(y int, dy, du, dv []float32) {
			du, dv = du[:len(dy)], dv[:len(dy)]
			for x := range dy {
				r16, g16, b16, _ := src.At(b.Min.X+x, b.Min.Y+y).RGBA()
				dy[x], du[x], dv[x] = RGBToYUV(float32(r16>>8), float32(g16>>8), float32(b16>>8))
			}
		}
	}
}

// ToStdImage converts the planar image to an 8-bit stdlib image, clamping
// samples to the displayable range. Monochrome images become grayscale.
func (m *Image) ToStdImage() image.Image {
	w, h := m.W(), m.H()
	if m.Channels() == 1 {
		out := image.NewGray(image.Rect(0, 0, w, h))
		parallel.For(h, rowGrain, func(lo, hi int) {
			for y := lo; y < hi; y++ {
				for x := 0; x < w; x++ {
					out.SetGray(x, y, color.Gray{Y: clamp8(m.Planes[0].Pix[y*w+x])})
				}
			}
		})
		return out
	}
	out := image.NewRGBA(image.Rect(0, 0, w, h))
	parallel.For(h, rowGrain, func(lo, hi int) {
		for y := lo; y < hi; y++ {
			for x := 0; x < w; x++ {
				i := y*w + x
				r, g, b := YUVToRGB(m.Planes[ChannelY].Pix[i], m.Planes[ChannelU].Pix[i], m.Planes[ChannelV].Pix[i])
				out.SetRGBA(x, y, color.RGBA{R: clamp8(r), G: clamp8(g), B: clamp8(b), A: 255})
			}
		}
	})
	return out
}
