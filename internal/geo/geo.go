// Package geo provides the planar-geometry substrate for the
// Edge-PrivLocAd reproduction: points in a local metric plane, WGS-84
// coordinates and their projection to/from that plane, distances, circles,
// and the circle-intersection area needed by the utilization-rate metric.
//
// All mechanisms, attacks, and metrics in this repository operate on
// Point values in a local tangent plane measured in metres; LatLon and
// Projection exist at the system boundary where traces are expressed in
// geographic coordinates (the paper's dataset is a Shanghai bounding box).
package geo

import (
	"fmt"
	"math"
)

// EarthRadiusMeters is the mean Earth radius used by the haversine formula
// and the equirectangular projection.
const EarthRadiusMeters = 6_371_000.0

// Point is a location in a local tangent plane, in metres.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// Add returns p translated by the vector q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by the factor s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Dist returns the Euclidean distance between p and q in metres.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// Dist2 returns the squared Euclidean distance, avoiding the square root
// for comparisons on hot paths (clustering, spatial index).
func (p Point) Dist2(q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return dx*dx + dy*dy
}

// Finite reports whether neither coordinate is NaN or infinite. JSON
// cannot carry such values, but the binary wire codec decodes any
// float64, so servers check positions with it.
func (p Point) Finite() bool {
	return !math.IsNaN(p.X) && !math.IsInf(p.X, 0) && !math.IsNaN(p.Y) && !math.IsInf(p.Y, 0)
}

// Norm returns the Euclidean norm of p viewed as a vector.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Centroid returns the arithmetic mean of the points. The second return
// value reports whether the input was non-empty.
func Centroid(pts []Point) (Point, bool) {
	if len(pts) == 0 {
		return Point{}, false
	}
	var sx, sy float64
	for _, p := range pts {
		sx += p.X
		sy += p.Y
	}
	n := float64(len(pts))
	return Point{sx / n, sy / n}, true
}

// LatLon is a WGS-84 geographic coordinate in decimal degrees.
type LatLon struct {
	Lat float64 `json:"lat"`
	Lon float64 `json:"lon"`
}

// Validate reports whether the coordinate is a plausible WGS-84 position.
func (ll LatLon) Validate() error {
	if math.IsNaN(ll.Lat) || ll.Lat < -90 || ll.Lat > 90 {
		return fmt.Errorf("geo: latitude %g out of [-90, 90]", ll.Lat)
	}
	if math.IsNaN(ll.Lon) || ll.Lon < -180 || ll.Lon > 180 {
		return fmt.Errorf("geo: longitude %g out of [-180, 180]", ll.Lon)
	}
	return nil
}

// HaversineMeters returns the great-circle distance between two WGS-84
// coordinates in metres.
func HaversineMeters(a, b LatLon) float64 {
	const degToRad = math.Pi / 180
	lat1 := a.Lat * degToRad
	lat2 := b.Lat * degToRad
	dLat := (b.Lat - a.Lat) * degToRad
	dLon := (b.Lon - a.Lon) * degToRad
	s1 := math.Sin(dLat / 2)
	s2 := math.Sin(dLon / 2)
	h := s1*s1 + math.Cos(lat1)*math.Cos(lat2)*s2*s2
	return 2 * EarthRadiusMeters * math.Asin(math.Min(1, math.Sqrt(h)))
}

// Projection maps WGS-84 coordinates to a local tangent plane with an
// equirectangular projection centred on a reference coordinate. Within a
// city-scale extent (the paper's Shanghai box is ~80 km across) the
// distance distortion is far below the 50 m clustering threshold.
type Projection struct {
	origin LatLon
	cosLat float64
}

// NewProjection builds a projection centred on origin.
func NewProjection(origin LatLon) (*Projection, error) {
	if err := origin.Validate(); err != nil {
		return nil, fmt.Errorf("projection origin: %w", err)
	}
	if math.Abs(origin.Lat) > 85 {
		return nil, fmt.Errorf("geo: projection origin latitude %g too close to a pole", origin.Lat)
	}
	return &Projection{
		origin: origin,
		cosLat: math.Cos(origin.Lat * math.Pi / 180),
	}, nil
}

// Origin returns the projection's reference coordinate.
func (pr *Projection) Origin() LatLon { return pr.origin }

// ToPlane projects a geographic coordinate to plane metres.
func (pr *Projection) ToPlane(ll LatLon) Point {
	const degToRad = math.Pi / 180
	return Point{
		X: EarthRadiusMeters * (ll.Lon - pr.origin.Lon) * degToRad * pr.cosLat,
		Y: EarthRadiusMeters * (ll.Lat - pr.origin.Lat) * degToRad,
	}
}

// ToLatLon inverts ToPlane.
func (pr *Projection) ToLatLon(p Point) LatLon {
	const radToDeg = 180 / math.Pi
	return LatLon{
		Lat: pr.origin.Lat + (p.Y/EarthRadiusMeters)*radToDeg,
		Lon: pr.origin.Lon + (p.X/(EarthRadiusMeters*pr.cosLat))*radToDeg,
	}
}

// Circle is a disk in the local plane: centre and radius in metres.
type Circle struct {
	Center Point   `json:"center"`
	Radius float64 `json:"radius_m"`
}

// Contains reports whether q lies inside or on the circle.
func (c Circle) Contains(q Point) bool {
	return c.Center.Dist2(q) <= c.Radius*c.Radius
}

// Area returns the disk area in square metres.
func (c Circle) Area() float64 { return math.Pi * c.Radius * c.Radius }

// IntersectionArea returns the area of the lens formed by two disks.
// This is the analytic form of the paper's utilization rate numerator for
// a single obfuscated output (AOI ∩ AOR with equal radii reduces to the
// symmetric lens).
func IntersectionArea(a, b Circle) float64 {
	if a.Radius <= 0 || b.Radius <= 0 {
		return 0
	}
	d := a.Center.Dist(b.Center)
	if d >= a.Radius+b.Radius {
		return 0
	}
	small, large := a.Radius, b.Radius
	if small > large {
		small, large = large, small
	}
	if d <= large-small {
		// The smaller disk is entirely inside the larger one.
		return math.Pi * small * small
	}
	r1, r2 := a.Radius, b.Radius
	// Standard circle-circle lens area.
	d1 := (d*d + r1*r1 - r2*r2) / (2 * d)
	d2 := d - d1
	seg := func(r, x float64) float64 {
		x = math.Max(-r, math.Min(r, x))
		return r*r*math.Acos(x/r) - x*math.Sqrt(math.Max(0, r*r-x*x))
	}
	return seg(r1, d1) + seg(r2, d2)
}

// BBox is an axis-aligned bounding box in the local plane.
type BBox struct {
	MinX, MinY, MaxX, MaxY float64
}

// NewBBox returns the tightest box containing all points. The second
// return value reports whether the input was non-empty.
func NewBBox(pts []Point) (BBox, bool) {
	if len(pts) == 0 {
		return BBox{}, false
	}
	b := BBox{pts[0].X, pts[0].Y, pts[0].X, pts[0].Y}
	for _, p := range pts[1:] {
		b.MinX = math.Min(b.MinX, p.X)
		b.MinY = math.Min(b.MinY, p.Y)
		b.MaxX = math.Max(b.MaxX, p.X)
		b.MaxY = math.Max(b.MaxY, p.Y)
	}
	return b, true
}

// Contains reports whether p lies inside the box (inclusive).
func (b BBox) Contains(p Point) bool {
	return p.X >= b.MinX && p.X <= b.MaxX && p.Y >= b.MinY && p.Y <= b.MaxY
}

// Expand grows the box by margin metres on every side.
func (b BBox) Expand(margin float64) BBox {
	return BBox{b.MinX - margin, b.MinY - margin, b.MaxX + margin, b.MaxY + margin}
}

// Width returns the horizontal extent of the box.
func (b BBox) Width() float64 { return b.MaxX - b.MinX }

// Height returns the vertical extent of the box.
func (b BBox) Height() float64 { return b.MaxY - b.MinY }
