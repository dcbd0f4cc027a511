module Ldb = Dpq_overlay.Ldb

type t = { ldb : Ldb.t; paths : (int * float, Ldb.vnode array) Hashtbl.t }

let create ldb = { ldb; paths = Hashtbl.create 64 }

let path t ~src ~point =
  let key = (src, point) in
  match Hashtbl.find_opt t.paths key with
  | Some p -> p
  | None ->
      let p = Ldb.route_array t.ldb ~src ~point in
      Hashtbl.replace t.paths key p;
      p
