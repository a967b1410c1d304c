module wormhole/benchmark

go 1.24

require wormhole v0.0.0

replace wormhole => ../
