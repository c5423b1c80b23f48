module btrace/bench

go 1.23

require btrace v0.0.0

replace btrace => ../
