package economy

// SpotPricer posts a single tâtonnement-adjusted price per node-round for a
// shared resource pool, the posted-price half of the G-commerce formulation:
// the price rises while the pool is oversubscribed and decays back to the
// floor while it idles. One price shared by every bidder cannot reorder
// bids, so the metascheduler ranks its queue by the bids themselves and
// only reports the price; it would enter a decision only through a
// non-ordinal choice such as a budget constraint.
type SpotPricer struct {
	// Floor is the production-cost floor the price never drops below.
	Floor float64
	// Alpha is the adjustment rate per observation (fraction of price per
	// unit of relative excess demand), as in CommodityMarket.
	Alpha float64

	price float64
}

// NewSpotPricer creates a pricer starting at the floor plus the same small
// margin the commodities market opens with.
func NewSpotPricer(floor, alpha float64) *SpotPricer {
	if floor <= 0 {
		floor = 1
	}
	if alpha <= 0 || alpha >= 1 {
		alpha = 0.1
	}
	return &SpotPricer{Floor: floor, Alpha: alpha, price: floor * 1.1}
}

// Price returns the current posted price per node-round.
func (sp *SpotPricer) Price() float64 { return sp.price }

// maxPriceFactor caps the posted price at this multiple of the floor.
// Tâtonnement under sustained oversubscription is multiplicative, so an
// uncapped price eventually overflows to +Inf, which makes it
// unserializable; the cap only keeps the arithmetic finite.
const maxPriceFactor = 1e12

// Observe feeds one round's demand (queued node demand) and supply (free
// nodes) into the tâtonnement adjustment, clamped between the cost floor
// and the overflow ceiling.
func (sp *SpotPricer) Observe(demand, supply int) {
	if supply < 1 {
		supply = 1
	}
	excess := float64(demand-supply) / float64(supply)
	sp.price *= 1 + sp.Alpha*excess
	if sp.price < sp.Floor {
		sp.price = sp.Floor
	}
	if ceil := sp.Floor * maxPriceFactor; sp.price > ceil {
		sp.price = ceil
	}
}
